//! CUDA C source emission and Orio-style annotations.
//!
//! [`cuda_kernel`] renders a [`MappedKernel`] as the `__global__` function
//! the real Barracuda would have produced via CUDA-CHiLL (Figure 2(d)):
//! linearized subscripts, thread/block index recovery, interior loops with
//! unrolling and a remainder loop, and scalar replacement of the output.
//! [`orio_annotation`] renders the search-space description (Figure 2(c)),
//! and [`sequential_c`] the untransformed loop nest TCR starts from.

use crate::mapping::{ArrayAccess, MappedKernel};
use crate::program::{TcrOp, TcrProgram};
use crate::space::{LoopSel, OpSpace, ProgramSpace};
use std::fmt::Write;
use tensor::IndexVar;

/// How a loop variable is spelled inside the kernel body.
fn var_expr(kernel: &MappedKernel, v: &IndexVar, offset: Option<&str>) -> String {
    let base = if *v == kernel.tx.0 {
        "tx".to_string()
    } else if kernel.ty.as_ref().is_some_and(|(t, _)| t == v) {
        "ty".to_string()
    } else if kernel.bx.as_ref().is_some_and(|(b, _)| b == v) {
        "bx".to_string()
    } else if kernel.by.as_ref().is_some_and(|(b, _)| b == v) {
        "by".to_string()
    } else {
        v.name().to_string()
    };
    match offset {
        Some(o) if base == o => base, // not expected; defensive
        Some(o) => format!("({base} + {o})"),
        None => base,
    }
}

/// Renders `base + Σ var·stride`; `unroll_var`/`offset` substitute
/// `var -> (var + offset)` for unrolled copies.
fn addr_expr(
    kernel: &MappedKernel,
    acc: &ArrayAccess,
    unroll_var: Option<&IndexVar>,
    offset: Option<&str>,
) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (v, stride) in &acc.terms {
        let off = if unroll_var == Some(v) { offset } else { None };
        let e = var_expr(kernel, v, off);
        if *stride == 1 {
            parts.push(e);
        } else {
            parts.push(format!("{e} * {stride}"));
        }
    }
    if parts.is_empty() {
        "0".to_string()
    } else {
        parts.join(" + ")
    }
}

fn body_statement(
    kernel: &MappedKernel,
    target: &str,
    unroll_var: Option<&IndexVar>,
    offset: Option<&str>,
) -> String {
    let rhs: Vec<String> = kernel
        .inputs
        .iter()
        .enumerate()
        .map(|(k, acc)| {
            let name = if kernel.is_staged(k) {
                format!("s_{}", acc.name)
            } else {
                acc.name.clone()
            };
            format!("{}[{}]", name, addr_expr(kernel, acc, unroll_var, offset))
        })
        .collect();
    if kernel.coefficient == 1.0 {
        format!("{target} = {target} + {};", rhs.join(" * "))
    } else {
        format!(
            "{target} = {target} + {} * {};",
            kernel.coefficient,
            rhs.join(" * ")
        )
    }
}

/// Emits the full `__global__` kernel source.
pub fn cuda_kernel(kernel: &MappedKernel) -> String {
    let mut s = String::new();
    let mut params: Vec<String> = vec![format!("double *{}", kernel.output.name)];
    let mut seen = vec![kernel.output.name.clone()];
    for acc in &kernel.inputs {
        if !seen.contains(&acc.name) {
            params.push(format!("double *{}", acc.name));
            seen.push(acc.name.clone());
        }
    }
    let _ = writeln!(s, "__global__ void {}", kernel.name);
    let _ = writeln!(s, "({})", params.join(", "));
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  int tx = threadIdx.x;");
    if kernel.ty.is_some() {
        let _ = writeln!(s, "  int ty = threadIdx.y;");
    }
    if kernel.bx.is_some() {
        let _ = writeln!(s, "  int bx = blockIdx.x;");
    }
    if kernel.by.is_some() {
        let _ = writeln!(s, "  int by = blockIdx.y;");
    }

    // Cooperative shared-memory staging of small reused inputs.
    if !kernel.staged.is_empty() {
        let _ = writeln!(
            s,
            "  int tid = tx{};",
            if kernel.ty.is_some() {
                " + ty * blockDim.x"
            } else {
                ""
            }
        );
        let tpb = kernel.threads_per_block();
        let mut staged_names: Vec<String> = Vec::new();
        for &k in &kernel.staged {
            let acc = &kernel.inputs[k];
            if staged_names.contains(&acc.name) {
                continue;
            }
            staged_names.push(acc.name.clone());
            let _ = writeln!(s, "  __shared__ double s_{}[{}];", acc.name, acc.len);
            let _ = writeln!(
                s,
                "  for (int q = tid; q < {}; q += {tpb}) s_{}[q] = {}[q];",
                acc.len, acc.name, acc.name
            );
        }
        let _ = writeln!(s, "  __syncthreads();");
    }

    let registered = kernel.output_fully_registered();
    let out_addr = addr_expr(kernel, &kernel.output, None, None);
    let target = if registered {
        // Scalar replacement (the paper's `registers(...)` transformation).
        if kernel.accumulate {
            let _ = writeln!(s, "  double nv = {}[{}];", kernel.output.name, out_addr);
        } else {
            let _ = writeln!(s, "  double nv = 0.0;");
        }
        "nv".to_string()
    } else {
        format!("{}[{}]", kernel.output.name, out_addr)
    };

    // Interior loops.
    let n_loops = kernel.interior.len();
    let mut depth = 1usize;
    for (li, l) in kernel.interior.iter().enumerate() {
        let last = li + 1 == n_loops;
        let pad = "  ".repeat(depth);
        if last && kernel.unroll > 1 {
            let u = kernel.unroll;
            let main_end = l.extent - l.extent % u;
            let _ = writeln!(s, "{pad}int {v};", v = l.var);
            let _ = writeln!(
                s,
                "{pad}for ({v} = 0; {v} < {main_end}; {v} += {u}) {{",
                v = l.var
            );
            for o in 0..u {
                let off = o.to_string();
                let stmt = body_statement(kernel, &target, Some(&l.var), Some(&off));
                let _ = writeln!(s, "{pad}  {stmt}");
            }
            let _ = writeln!(s, "{pad}}}");
            if main_end < l.extent {
                let _ = writeln!(
                    s,
                    "{pad}for (; {v} < {e}; {v}++) {{",
                    v = l.var,
                    e = l.extent
                );
                let stmt = body_statement(kernel, &target, None, None);
                let _ = writeln!(s, "{pad}  {stmt}");
                let _ = writeln!(s, "{pad}}}");
            }
        } else {
            let _ = writeln!(
                s,
                "{pad}for (int {v} = 0; {v} < {e}; {v}++) {{",
                v = l.var,
                e = l.extent
            );
            depth += 1;
            if last {
                let stmt = body_statement(kernel, &target, None, None);
                let _ = writeln!(s, "{}{stmt}", "  ".repeat(depth));
            }
        }
    }
    if n_loops == 0 {
        let stmt = body_statement(kernel, &target, None, None);
        let _ = writeln!(s, "  {stmt}");
    }
    // Close the non-unrolled loops.
    for d in (1..depth).rev() {
        let _ = writeln!(s, "{}}}", "  ".repeat(d));
    }

    if registered {
        let _ = writeln!(s, "  {}[{}] = nv;", kernel.output.name, out_addr);
    }
    let _ = writeln!(s, "}}");
    s
}

/// Emits host-side launch pseudo-code for a mapped program.
pub fn cuda_launcher(kernels: &[MappedKernel]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "// data stays resident on the GPU across these calls");
    for k in kernels {
        let (gx, gy) = k.grid();
        let (bx, by) = k.block();
        let mut args: Vec<&str> = vec![k.output.name.as_str()];
        for acc in &k.inputs {
            if !args.contains(&acc.name.as_str()) {
                args.push(acc.name.as_str());
            }
        }
        let _ = writeln!(
            s,
            "{}<<<dim3({gx}, {gy}), dim3({bx}, {by})>>>({});",
            k.name,
            args.join(", ")
        );
    }
    s
}

/// Renders the Orio/CHiLL-style annotation describing one statement's
/// search space (Figure 2(c)).
pub fn orio_annotation(space: &OpSpace) -> String {
    let mut s = String::new();
    let i = space.op_index;
    let fmt_vars = |vs: &[String]| -> String {
        let q: Vec<String> = vs.iter().map(|v| format!("'{v}'")).collect();
        format!("[{}]", q.join(","))
    };
    let _ = writeln!(s, "def performance_params {{");
    let tx: Vec<String> = space
        .tx_candidates
        .iter()
        .map(|v| v.name().to_string())
        .collect();
    let ty: Vec<String> = space.ty_candidates.iter().map(|v| v.to_string()).collect();
    // The grid-1 fallback's `1` is not a PERMUTE value of BlockX.
    let bx: Vec<String> = space
        .bx_candidates
        .iter()
        .filter_map(LoopSel::var)
        .map(|v| v.to_string())
        .collect();
    let by: Vec<String> = space.by_candidates.iter().map(|v| v.to_string()).collect();
    let _ = writeln!(s, "  param PERMUTE_{i}_TX{i}[] = {};", fmt_vars(&tx));
    let _ = writeln!(s, "  param PERMUTE_{i}_TY{i}[] = {};", fmt_vars(&ty));
    let _ = writeln!(s, "  param PERMUTE_{i}_BX{i}[] = {};", fmt_vars(&bx));
    let _ = writeln!(s, "  param PERMUTE_{i}_BY{i}[] = {};", fmt_vars(&by));
    let ufs: Vec<String> = (1..=crate::space::MAX_UNROLL)
        .map(|u| u.to_string())
        .collect();
    let _ = writeln!(s, "  param UF_{i}[] = [{}];", ufs.join(","));
    let _ = writeln!(s, "}}");
    let _ = writeln!(s, "/*@ begin CHiLL (");
    let _ = writeln!(
        s,
        "  cuda({i},block={{PERMUTE_{i}_BX{i},PERMUTE_{i}_BY{i}}},thread={{PERMUTE_{i}_TX{i},PERMUTE_{i}_TY{i}}})"
    );
    let _ = writeln!(s, "  registers({i},\"out\")");
    let _ = writeln!(s, "  unroll({i},UF_{i})");
    let _ = writeln!(s, ") @*/");
    s
}

/// Renders every statement's annotation.
pub fn orio_annotations(space: &ProgramSpace) -> String {
    space
        .per_op
        .iter()
        .map(orio_annotation)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Emits a complete, self-contained `.cu` translation unit for a mapped
/// program: every kernel, a host `main` that allocates and fills the
/// arrays, copies them to the device, launches the kernels with the tuned
/// grid/block shapes, copies the output back and checks it against a CPU
/// reference loop. The output of `--emit cuda` can be handed to `nvcc`.
pub fn cuda_file(program: &TcrProgram, kernels: &[MappedKernel]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "// Generated by barracuda (reproduction of Nelson et al., ICPP 2015)"
    );
    let _ = writeln!(s, "#include <cstdio>");
    let _ = writeln!(s, "#include <cstdlib>");
    let _ = writeln!(s, "#include <cmath>");
    let _ = writeln!(s, "#include <cuda_runtime.h>");
    let _ = writeln!(s);
    for k in kernels {
        s.push_str(&cuda_kernel(k));
        let _ = writeln!(s);
    }

    let _ = writeln!(
        s,
        "static double frand() {{ return 2.0 * rand() / RAND_MAX - 1.0; }}"
    );
    let _ = writeln!(s);
    let _ = writeln!(s, "int main() {{");
    // Host + device buffers for every array.
    for a in &program.arrays {
        let n = a.len(&program.dims);
        let _ = writeln!(
            s,
            "  double *h_{0} = (double*)calloc({1}, sizeof(double));",
            a.name, n
        );
        let _ = writeln!(
            s,
            "  double *d_{0}; cudaMalloc(&d_{0}, {1} * sizeof(double));",
            a.name, n
        );
        if a.kind == crate::program::ArrayKind::Input {
            let _ = writeln!(
                s,
                "  for (int q = 0; q < {n}; q++) h_{0}[q] = frand();",
                a.name
            );
        }
        let _ = writeln!(
            s,
            "  cudaMemcpy(d_{0}, h_{0}, {n} * sizeof(double), cudaMemcpyHostToDevice);",
            a.name
        );
    }
    let _ = writeln!(s);
    let _ = writeln!(s, "  // tuned launches (temporaries stay device-resident)");
    for k in kernels {
        let (gx, gy) = k.grid();
        let (bx, by) = k.block();
        let mut args: Vec<String> = vec![format!("d_{}", k.output.name)];
        for acc in &k.inputs {
            let d = format!("d_{}", acc.name);
            if !args.contains(&d) {
                args.push(d);
            }
        }
        let _ = writeln!(
            s,
            "  {}<<<dim3({gx}, {gy}), dim3({bx}, {by})>>>({});",
            k.name,
            args.join(", ")
        );
    }
    let out = &program.arrays[program.output_id()];
    let out_n = out.len(&program.dims);
    let _ = writeln!(s, "  cudaDeviceSynchronize();");
    let _ = writeln!(
        s,
        "  cudaMemcpy(h_{0}, d_{0}, {out_n} * sizeof(double), cudaMemcpyDeviceToHost);",
        out.name
    );
    let _ = writeln!(s);
    let _ = writeln!(s, "  // CPU reference for validation");
    for a in &program.arrays {
        if a.kind != crate::program::ArrayKind::Input {
            let _ = writeln!(
                s,
                "  double *r_{0} = (double*)calloc({1}, sizeof(double));",
                a.name,
                a.len(&program.dims)
            );
        }
    }
    for op in &program.ops {
        let mut nest = sequential_c(program, op);
        // Reference arrays carry the r_/h_ prefixes.
        for a in &program.arrays {
            let from = format!("{}[", a.name);
            let to = if a.kind == crate::program::ArrayKind::Input {
                format!("h_{}[", a.name)
            } else {
                format!("r_{}[", a.name)
            };
            nest = nest.replace(&from, &to);
        }
        for line in nest.lines() {
            let _ = writeln!(s, "  {line}");
        }
    }
    let _ = writeln!(s, "  double err = 0.0;");
    let _ = writeln!(
        s,
        "  for (int q = 0; q < {out_n}; q++) err = fmax(err, fabs(h_{0}[q] - r_{0}[q]));",
        out.name
    );
    let _ = writeln!(
        s,
        "  printf(\"max |gpu - cpu| = %.3e (%s)\\n\", err, err < 1e-9 ? \"OK\" : \"FAIL\");"
    );
    let _ = writeln!(s, "  return err < 1e-9 ? 0 : 1;");
    let _ = writeln!(s, "}}");
    s
}

/// Emits CUDA for a fused kernel (`crate::fusion`): shared-memory slices,
/// one phase per statement separated by `__syncthreads()`.
pub fn cuda_fused(kernel: &crate::fusion::FusedKernel, program: &TcrProgram) -> String {
    use crate::fusion::FusedOperand;
    let mut s = String::new();
    // Parameters: global arrays only (inputs + final output).
    let mut params: Vec<String> = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    let out_name = &program.arrays[program.output_id()].name;
    params.push(format!("double *{out_name}"));
    seen.push(out_name);
    for phase in &kernel.phases {
        for opnd in &phase.operands {
            if let FusedOperand::Global { array, .. } = opnd {
                let name = &program.arrays[*array].name;
                if !seen.contains(&name.as_str()) {
                    params.push(format!("double *{name}"));
                    seen.push(name);
                }
            }
        }
    }
    let _ = writeln!(s, "__global__ void {}", kernel.name);
    let _ = writeln!(s, "({})", params.join(", "));
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  int tx = threadIdx.x;");
    let _ = writeln!(s, "  int ty = threadIdx.y;");
    // Recover the fused loop values from the linearized block index.
    let _ = writeln!(s, "  int b = blockIdx.x;");
    let mut div = 1usize;
    for (v, e) in kernel.fused.iter().rev() {
        let _ = writeln!(s, "  int {v} = (b / {div}) % {e};");
        div *= e;
    }
    for slice in &kernel.slices {
        let _ = writeln!(s, "  __shared__ double s_{}[{}];", slice.name, slice.len);
    }

    let render_terms = |terms: &[(tensor::IndexVar, usize)],
                        tx_v: Option<&tensor::IndexVar>,
                        ty_v: Option<&tensor::IndexVar>|
     -> String {
        let parts: Vec<String> = terms
            .iter()
            .map(|(v, stride)| {
                let e = if tx_v == Some(v) {
                    "tx".to_string()
                } else if ty_v == Some(v) {
                    "ty".to_string()
                } else {
                    v.name().to_string()
                };
                if *stride == 1 {
                    e
                } else {
                    format!("{e} * {stride}")
                }
            })
            .collect();
        if parts.is_empty() {
            "0".to_string()
        } else {
            parts.join(" + ")
        }
    };

    for (pi, phase) in kernel.phases.iter().enumerate() {
        let _ = writeln!(s, "  // phase {pi}: statement {}", phase.op_index);
        let n = phase.par_dims.len();
        let tx_v = if n >= 1 {
            Some(&phase.par_dims[n - 1].0)
        } else {
            None
        };
        let ty_v = if n >= 2 {
            Some(&phase.par_dims[n - 2].0)
        } else {
            None
        };
        // Guard threads beyond this phase's extent.
        let mut guards: Vec<String> = Vec::new();
        if let Some(v) = tx_v {
            guards.push(format!("tx < {}", phase.par_dims[n - 1].1));
            let _ = v;
        }
        if let Some(v) = ty_v {
            guards.push(format!("ty < {}", phase.par_dims[n - 2].1));
            let _ = v;
        }
        let guard = if guards.is_empty() {
            "tx == 0 && ty == 0".to_string()
        } else {
            guards.join(" && ")
        };
        let _ = writeln!(s, "  if ({guard}) {{");
        let mut depth = 2usize;
        // Per-thread parallel loops (dims beyond tx/ty).
        for (v, e) in phase.par_dims.iter().take(n.saturating_sub(2)) {
            let _ = writeln!(
                s,
                "{}for (int {v} = 0; {v} < {e}; {v}++) {{",
                "  ".repeat(depth)
            );
            depth += 1;
        }
        let _ = writeln!(s, "{}double nv = 0.0;", "  ".repeat(depth));
        for (v, e) in &phase.sum_dims {
            let _ = writeln!(
                s,
                "{}for (int {v} = 0; {v} < {e}; {v}++) {{",
                "  ".repeat(depth)
            );
            depth += 1;
        }
        let rhs: Vec<String> = phase
            .operands
            .iter()
            .map(|o| match o {
                FusedOperand::Global { array, terms } => format!(
                    "{}[{}]",
                    program.arrays[*array].name,
                    render_terms(terms, tx_v, ty_v)
                ),
                FusedOperand::Slice { slice, terms } => format!(
                    "s_{}[{}]",
                    kernel.slices[*slice].name,
                    render_terms(terms, tx_v, ty_v)
                ),
            })
            .collect();
        if phase.coefficient == 1.0 {
            let _ = writeln!(s, "{}nv += {};", "  ".repeat(depth), rhs.join(" * "));
        } else {
            let _ = writeln!(
                s,
                "{}nv += {} * {};",
                "  ".repeat(depth),
                phase.coefficient,
                rhs.join(" * ")
            );
        }
        for _ in &phase.sum_dims {
            depth -= 1;
            let _ = writeln!(s, "{}}}", "  ".repeat(depth));
        }
        let target = match phase.target_slice {
            Some(sid) => format!("s_{}", kernel.slices[sid].name),
            None => out_name.clone(),
        };
        let op = if phase.target_slice.is_none() && kernel.accumulate {
            "+="
        } else {
            "="
        };
        let _ = writeln!(
            s,
            "{}{target}[{}] {op} nv;",
            "  ".repeat(depth),
            render_terms(&phase.out_terms, tx_v, ty_v)
        );
        for _ in 0..(n.saturating_sub(2)) {
            depth -= 1;
            let _ = writeln!(s, "{}}}", "  ".repeat(depth));
        }
        let _ = writeln!(s, "  }}");
        if pi + 1 < kernel.phases.len() {
            let _ = writeln!(s, "  __syncthreads();");
        }
    }
    let _ = writeln!(s, "}}");
    s
}

/// Renders the naive sequential C loop nest of one statement (the input
/// CUDA-CHiLL starts from, Figure 2 bottom-left).
pub fn sequential_c(program: &TcrProgram, op: &TcrOp) -> String {
    let mut s = String::new();
    let vars = program.loop_vars(op);
    for (d, v) in vars.iter().enumerate() {
        let _ = writeln!(
            s,
            "{}for (int {v} = 0; {v} < {e}; {v}++) {{",
            "  ".repeat(d),
            e = program.dims[v]
        );
    }
    let render_ref = |id: usize| -> String {
        let decl = &program.arrays[id];
        let strides = decl.shape(&program.dims).strides();
        let parts: Vec<String> = decl
            .indices
            .iter()
            .zip(strides)
            .map(|(v, st)| {
                if st == 1 {
                    v.name().to_string()
                } else {
                    format!("{v} * {st}")
                }
            })
            .collect();
        format!("{}[{}]", decl.name, parts.join(" + "))
    };
    let out = render_ref(op.output);
    let rhs: Vec<String> = op.inputs.iter().map(|&id| render_ref(id)).collect();
    let _ = writeln!(
        s,
        "{}{out} = {out} + {};",
        "  ".repeat(vars.len()),
        rhs.join(" * ")
    );
    for d in (0..vars.len()).rev() {
        let _ = writeln!(s, "{}}}", "  ".repeat(d));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{map_kernel, map_program};
    use crate::program::tests_support::{eqn1_program, matmul_program};
    use crate::space::ProgramSpace;

    #[test]
    fn kernel_source_has_cuda_shape() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p).unwrap();
        let cfg = space.per_op[2].config(0);
        let k = map_kernel(&p, 2, cfg, false).unwrap();
        let src = cuda_kernel(&k);
        assert!(src.contains("__global__ void ex_GPU_2"));
        assert!(src.contains("threadIdx.x"));
        assert!(src.contains("double *V"));
    }

    #[test]
    fn unrolled_kernel_emits_copies_and_remainder() {
        let p = matmul_program(10);
        let space = ProgramSpace::build(&p).unwrap();
        let cfg = space.per_op[0]
            .configs()
            .find(|c| c.unroll == 3 && c.interior.len() == 1)
            .expect("an unroll-3 config exists");
        let k = map_kernel(&p, 0, cfg, false).unwrap();
        let src = cuda_kernel(&k);
        // Main unrolled loop steps by 3 and a remainder loop follows
        // (10 % 3 != 0).
        assert!(src.contains("+= 3"), "{src}");
        assert!(src.contains("(j + 1)"), "{src}");
        assert!(src.contains("(j + 2)"), "{src}");
        assert!(src.matches("for (").count() >= 2, "{src}");
    }

    #[test]
    fn scalar_replacement_emitted_when_registered() {
        let p = matmul_program(8);
        let space = ProgramSpace::build(&p).unwrap();
        let cfg = space.per_op[0]
            .configs()
            .find(|c| c.interior.len() == 1 && c.unroll == 1)
            .unwrap();
        let k = map_kernel(&p, 0, cfg, false).unwrap();
        assert!(k.output_fully_registered());
        let src = cuda_kernel(&k);
        assert!(src.contains("double nv = 0.0;"));
        assert!(src.contains("] = nv;"));
    }

    #[test]
    fn accumulate_reads_initial_output() {
        let p = matmul_program(8);
        let space = ProgramSpace::build(&p).unwrap();
        let cfg = space.per_op[0]
            .configs()
            .find(|c| c.interior.len() == 1 && c.unroll == 1)
            .unwrap();
        let k = map_kernel(&p, 0, cfg, true).unwrap();
        let src = cuda_kernel(&k);
        assert!(src.contains("double nv = C["), "{src}");
    }

    #[test]
    fn launcher_lists_every_kernel() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p).unwrap();
        let kernels = map_program(&p, &space, &space.config(0), false).unwrap();
        let host = cuda_launcher(&kernels);
        assert_eq!(host.matches("<<<").count(), 3);
    }

    #[test]
    fn orio_annotation_mentions_params() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p).unwrap();
        let ann = orio_annotations(&space);
        assert!(ann.contains("param PERMUTE_2_TX2[]"));
        assert!(ann.contains("param UF_0[]"));
        assert!(ann.contains("begin CHiLL"));
    }

    #[test]
    fn cuda_file_is_self_contained() {
        let p = eqn1_program(10);
        let space = ProgramSpace::build(&p).unwrap();
        let kernels = map_program(&p, &space, &space.config(0), false).unwrap();
        let src = cuda_file(&p, &kernels);
        assert!(src.contains("#include <cuda_runtime.h>"));
        assert_eq!(src.matches("__global__").count(), 3);
        assert!(src.contains("int main()"));
        assert!(src.contains("cudaMalloc"));
        assert!(src.contains("cudaMemcpyDeviceToHost"));
        // The CPU reference must rename arrays to h_/r_ forms.
        assert!(src.contains("r_V["), "{src}");
        assert!(src.contains("h_A["), "{src}");
        assert!(src.contains("max |gpu - cpu|"));
        // Balanced braces (crude compile-shape check).
        assert_eq!(src.matches('{').count(), src.matches('}').count());
    }

    #[test]
    fn staged_kernel_emits_shared_memory() {
        let p = matmul_program(16);
        let space = ProgramSpace::build(&p).unwrap();
        let mut cfg = space.per_op[0]
            .configs()
            .find(|c| c.interior.len() == 1 && c.unroll == 1)
            .unwrap();
        cfg.staged = vec![0];
        let k = map_kernel(&p, 0, cfg, false).unwrap();
        let src = cuda_kernel(&k);
        assert!(src.contains("__shared__ double s_A["), "{src}");
        assert!(src.contains("__syncthreads();"), "{src}");
        assert!(src.contains("s_A["), "{src}");
    }

    #[test]
    fn sequential_c_nests_all_loops() {
        let p = matmul_program(8);
        let src = sequential_c(&p, &p.ops[0]);
        assert_eq!(src.matches("for (").count(), 3);
        assert!(src.contains("C[") && src.contains("A[") && src.contains("B["));
    }
}
