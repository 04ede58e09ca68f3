//! Missing inputs are typed errors in every whole-workload executor.
//!
//! `TunedWorkload::execute`, `cpu::execute_workload_cpu` and
//! `fusionopt::execute_with_fusion` share one statement chain, so leaving
//! an input out must give the same validation error from all three
//! (stage `validation`, exit code 4, naming the tensor) instead of a
//! panic.

use barracuda::pipeline::{TuneParams, WorkloadTuner};
use barracuda::{cpu, fusionopt, kernels};
use tensor::Tensor;

#[test]
fn missing_input_is_a_typed_error_in_every_executor() {
    let w = kernels::eqn1(5);
    let arch = gpusim::k20();
    let tuned = WorkloadTuner::build(&w)
        .autotune(&arch, TuneParams::quick())
        .unwrap();
    let inputs: Vec<(String, Tensor)> = w
        .random_inputs(1)
        .into_iter()
        .filter(|(name, _)| name != "A")
        .collect();
    let errors = [
        tuned.execute(&w, &inputs).unwrap_err(),
        cpu::execute_workload_cpu(&w, &inputs, 1).unwrap_err(),
        fusionopt::execute_with_fusion(&tuned, &w, &arch, &inputs).unwrap_err(),
    ];
    for e in errors {
        assert_eq!(e.stage(), "validation", "{e}");
        assert_eq!(e.exit_code(), 4, "{e}");
        assert!(e.to_string().contains("missing input tensor A"), "{e}");
    }
}
