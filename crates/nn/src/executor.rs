//! Graph execution: walks a [`ModelSpec`] DAG in SSA order, offloading
//! compute-intensive ops to the [`Backend`] and running everything else
//! natively — the execution discipline of Fig. 2b of the paper.

use crate::backend::Backend;
use crate::params::ModelParams;
use crate::value::Value;
use stonne_core::{RowSchedule, Stonne};
use stonne_models::{ModelSpec, OpSpec, TensorShape};
use stonne_tensor::{Elem, Matrix, Tensor4};

/// Executes the model and returns every node's output value (node 0 is
/// the input itself).
///
/// # Panics
///
/// Panics when the graph fails shape inference, a parameterized node is
/// missing weights, or a value kind mismatches its op.
pub fn execute_graph<B: Backend>(
    model: &ModelSpec,
    params: &ModelParams,
    input: &Value,
    backend: &mut B,
) -> Vec<Value> {
    model
        .infer_shapes()
        .unwrap_or_else(|e| panic!("invalid graph: {e}"));
    let mut values: Vec<Value> = Vec::with_capacity(model.nodes().len());
    for id in 0..model.nodes().len() {
        let ins: Vec<&Value> = model.nodes()[id]
            .inputs
            .iter()
            .map(|&i| &values[i])
            .collect();
        let out = execute_node(model, id, params, input, &ins, backend);
        values.push(out);
    }
    values
}

/// Executes a single node given the values of its inputs (`inputs[i]` is
/// the value of `node.inputs[i]`).
///
/// # Panics
///
/// Panics when a parameterized node is missing weights or a value kind
/// mismatches its op.
fn execute_node<B: Backend>(
    model: &ModelSpec,
    id: usize,
    params: &ModelParams,
    input: &Value,
    inputs: &[&Value],
    backend: &mut B,
) -> Value {
    let node = &model.nodes()[id];
    let get = |i: usize| inputs[i];
    match node.op {
        OpSpec::Input => input.clone(),
        OpSpec::Conv2d { geom } => {
            let w = params
                .get(id)
                .unwrap_or_else(|| panic!("node {id} ({}) missing weights", node.name));
            Value::Feature(backend.conv2d(&node.name, get(0).as_feature(), w.as_conv(), &geom))
        }
        OpSpec::Linear { .. } => {
            let w = params
                .get(id)
                .unwrap_or_else(|| panic!("node {id} ({}) missing weights", node.name));
            Value::Tokens(backend.linear(&node.name, get(0).as_tokens(), w.as_linear()))
        }
        OpSpec::MaxPool { window, stride } => {
            Value::Feature(backend.maxpool(&node.name, get(0).as_feature(), window, stride))
        }
        OpSpec::GlobalAvgPool => Value::Feature(global_avg_pool(get(0).as_feature())),
        OpSpec::Relu => map_value(get(0), |v| v.max(0.0)),
        OpSpec::Gelu => map_value(get(0), gelu),
        OpSpec::Add => add_values(get(0), get(1)),
        OpSpec::Concat => {
            let parts: Vec<&Tensor4> = inputs.iter().map(|v| v.as_feature()).collect();
            Value::Feature(concat_channels(&parts))
        }
        OpSpec::Flatten => {
            let t = get(0).as_feature();
            Value::Tokens(Matrix::from_vec(1, t.len(), t.as_slice().to_vec()))
        }
        OpSpec::Attention { heads } => Value::Tokens(attention(
            backend,
            &node.name,
            get(0).as_tokens(),
            get(1).as_tokens(),
            get(2).as_tokens(),
            heads,
        )),
        OpSpec::Softmax => Value::Tokens(softmax_rows(get(0).as_tokens(), false)),
        OpSpec::LogSoftmax => Value::Tokens(softmax_rows(get(0).as_tokens(), true)),
        OpSpec::LayerNorm => Value::Tokens(layer_norm(get(0).as_tokens())),
    }
}

/// The timing-only counterpart of [`execute_graph`]: walks
/// `ModelSpec::infer_shapes` in the same node order and offloads the same
/// operations under the same names (attention heads included) through
/// `sim`'s shape-level `time_*` entry points. No activation is computed;
/// statistics accumulate in `sim`'s history as in a full run.
///
/// # Panics
///
/// Panics when the graph fails shape inference, `input` is not the
/// model's input shape, or a parameterized node is missing weights.
pub(crate) fn time_graph(
    model: &ModelSpec,
    params: &ModelParams,
    input: &Value,
    sim: &mut Stonne,
    schedule: &dyn RowSchedule,
) {
    let shapes = model
        .infer_shapes()
        .unwrap_or_else(|e| panic!("invalid graph: {e}"));
    assert_eq!(input.shape(), shapes[0], "input shape mismatch");
    for (id, node) in model.nodes().iter().enumerate() {
        let name = node.name.as_str();
        let weights = || params.get(id).expect("parameterized node has weights");
        match (node.op, node.inputs.first().map(|&i| shapes[i])) {
            (OpSpec::Conv2d { geom }, Some(TensorShape::Feature { c, h, w })) => {
                let kernel = weights().as_conv();
                sim.time_conv(name, (1, c, h, w), kernel, &geom, None, schedule);
            }
            (OpSpec::Linear { .. }, Some(TensorShape::Tokens { seq, .. })) => {
                sim.time_linear(name, seq, weights().as_linear(), schedule);
            }
            (OpSpec::MaxPool { window, stride }, Some(TensorShape::Feature { c, h, w })) => {
                sim.time_maxpool(name, (1, c, h, w), window, stride);
            }
            (OpSpec::Attention { heads }, Some(TensorShape::Tokens { seq, dim })) => {
                let dh = dim / heads;
                for h in 0..heads {
                    sim.time_gemm(&format!("{name}.h{h}.qk"), (seq, dh, seq), None, schedule);
                    sim.time_gemm(&format!("{name}.h{h}.sv"), (seq, seq, dh), None, schedule);
                }
            }
            (op, shape) => assert!(!is_offloaded_op(&op), "node {id} ({name}): {shape:?}"),
        }
    }
}

/// Whether an op offloads work to the backend.
fn is_offloaded_op(op: &OpSpec) -> bool {
    matches!(
        op,
        OpSpec::Conv2d { .. }
            | OpSpec::Linear { .. }
            | OpSpec::MaxPool { .. }
            | OpSpec::Attention { .. }
    )
}

fn map_value(v: &Value, f: impl Fn(Elem) -> Elem) -> Value {
    match v {
        Value::Feature(t) => {
            let mut out = t.clone();
            out.as_mut_slice().iter_mut().for_each(|x| *x = f(*x));
            Value::Feature(out)
        }
        Value::Tokens(m) => {
            let mut out = m.clone();
            out.as_mut_slice().iter_mut().for_each(|x| *x = f(*x));
            Value::Tokens(out)
        }
    }
}

/// Tanh-approximation GeLU (the BERT activation).
fn gelu(x: Elem) -> Elem {
    const SQRT_2_OVER_PI: Elem = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
}

fn add_values(a: &Value, b: &Value) -> Value {
    match (a, b) {
        (Value::Feature(x), Value::Feature(y)) => {
            assert_eq!(x.shape(), y.shape(), "add shape mismatch");
            let mut out = x.clone();
            for (o, v) in out.as_mut_slice().iter_mut().zip(y.as_slice()) {
                *o += v;
            }
            Value::Feature(out)
        }
        (Value::Tokens(x), Value::Tokens(y)) => {
            assert_eq!((x.rows(), x.cols()), (y.rows(), y.cols()));
            let mut out = x.clone();
            for (o, v) in out.as_mut_slice().iter_mut().zip(y.as_slice()) {
                *o += v;
            }
            Value::Tokens(out)
        }
        _ => panic!("add requires matching value kinds"),
    }
}

fn concat_channels(parts: &[&Tensor4]) -> Tensor4 {
    let (n, h, w) = (parts[0].n(), parts[0].h(), parts[0].w());
    let c_total: usize = parts.iter().map(|t| t.c()).sum();
    let mut out = Tensor4::zeros(n, c_total, h, w);
    let mut c_off = 0;
    for t in parts {
        assert_eq!((t.n(), t.h(), t.w()), (n, h, w), "concat spatial mismatch");
        for nn in 0..n {
            for c in 0..t.c() {
                for y in 0..h {
                    for x in 0..w {
                        out.set(nn, c_off + c, y, x, t.get(nn, c, y, x));
                    }
                }
            }
        }
        c_off += t.c();
    }
    out
}

fn global_avg_pool(t: &Tensor4) -> Tensor4 {
    let mut out = Tensor4::zeros(t.n(), t.c(), 1, 1);
    let denom = (t.h() * t.w()) as Elem;
    for n in 0..t.n() {
        for c in 0..t.c() {
            let mut sum = 0.0;
            for y in 0..t.h() {
                for x in 0..t.w() {
                    sum += t.get(n, c, y, x);
                }
            }
            out.set(n, c, 0, 0, sum / denom);
        }
    }
    out
}

fn softmax_rows(m: &Matrix, log: bool) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for r in 0..m.rows() {
        let row = m.row(r);
        let max = row.iter().cloned().fold(Elem::NEG_INFINITY, Elem::max);
        let sum: Elem = row.iter().map(|v| (v - max).exp()).sum();
        for (c, &v) in row.iter().enumerate() {
            let p = (v - max).exp() / sum;
            out.set(r, c, if log { p.ln() } else { p });
        }
    }
    out
}

fn layer_norm(m: &Matrix) -> Matrix {
    const EPS: Elem = 1e-5;
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for r in 0..m.rows() {
        let row = m.row(r);
        let mean = row.iter().sum::<Elem>() / row.len() as Elem;
        let var = row.iter().map(|v| (v - mean).powi(2)).sum::<Elem>() / row.len() as Elem;
        let inv = 1.0 / (var + EPS).sqrt();
        for (c, &v) in row.iter().enumerate() {
            out.set(r, c, (v - mean) * inv);
        }
    }
    out
}

/// Multi-head scaled dot-product attention; the per-head score and
/// context products go through the backend (they are the offloaded
/// `sparse_mm`/`Dmm` work of BERT's transformer layers).
fn attention<B: Backend>(
    backend: &mut B,
    name: &str,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    heads: usize,
) -> Matrix {
    let (seq, dim) = (q.rows(), q.cols());
    assert_eq!(dim % heads, 0, "dim {dim} not divisible by {heads} heads");
    let dh = dim / heads;
    let scale = 1.0 / (dh as Elem).sqrt();
    let mut out = Matrix::zeros(seq, dim);
    for h in 0..heads {
        let slice = |m: &Matrix| -> Matrix {
            let mut head = Vec::with_capacity(seq * dh);
            for r in 0..seq {
                head.extend_from_slice(&m.row(r)[h * dh..][..dh]);
            }
            Matrix::from_vec(seq, dh, head)
        };
        let qh = slice(q);
        let kh = slice(k);
        let vh = slice(v);
        let mut scores = backend.matmul(&format!("{name}.h{h}.qk"), &qh, &kh.transposed());
        scores.as_mut_slice().iter_mut().for_each(|x| *x *= scale);
        let probs = softmax_rows(&scores, false);
        let ctx = backend.matmul(&format!("{name}.h{h}.sv"), &probs, &vh);
        for r in 0..seq {
            out.row_mut(r)[h * dh..][..dh].copy_from_slice(ctx.row(r));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ReferenceBackend;
    use crate::params::generate_input;
    use stonne_models::{zoo, ModelScale};
    use stonne_tensor::SeededRng;

    #[test]
    fn gelu_fixed_points() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]]);
        let s = softmax_rows(&m, false);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let m = Matrix::from_rows(&[&[0.5, -1.0, 2.0]]);
        let s = softmax_rows(&m, false);
        let ls = softmax_rows(&m, true);
        for c in 0..3 {
            assert!((ls.get(0, c) - s.get(0, c).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut rng = SeededRng::new(1);
        let m = Matrix::random(3, 32, &mut rng);
        let n = layer_norm(&m);
        for r in 0..3 {
            let mean: f32 = n.row(r).iter().sum::<f32>() / 32.0;
            let var: f32 = n.row(r).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 32.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn concat_stacks_channels_in_order() {
        let a = Tensor4::from_vec(1, 1, 1, 2, vec![1.0, 2.0]);
        let b = Tensor4::from_vec(1, 2, 1, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let out = concat_channels(&[&a, &b]);
        assert_eq!(out.shape(), (1, 3, 1, 2));
        assert_eq!(out.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn global_avg_pool_averages() {
        let t = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 6.0]);
        let out = global_avg_pool(&t);
        assert_eq!(out.get(0, 0, 0, 0), 3.0);
    }

    #[test]
    fn attention_identity_values_pass_through() {
        // With identical rows, softmax weights are uniform and the context
        // equals the (single) value row.
        let q = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0]]);
        let v = Matrix::from_rows(&[&[5.0, 7.0], &[5.0, 7.0]]);
        let mut b = ReferenceBackend;
        let out = attention(&mut b, "a", &q, &q, &v, 1);
        for r in 0..2 {
            assert!((out.get(r, 0) - 5.0).abs() < 1e-5);
            assert!((out.get(r, 1) - 7.0).abs() < 1e-5);
        }
    }

    #[test]
    fn every_zoo_model_executes_on_the_reference_backend() {
        for model in zoo::all_models(ModelScale::Tiny) {
            let params = ModelParams::generate(&model, 11);
            let input = generate_input(&model, 12);
            let mut backend = ReferenceBackend;
            let values = execute_graph(&model, &params, &input, &mut backend);
            assert_eq!(values.len(), model.nodes().len(), "{}", model.id());
            // Shapes of produced values match inference.
            let shapes = model.infer_shapes().unwrap();
            for (i, v) in values.iter().enumerate() {
                assert_eq!(v.shape(), shapes[i], "{} node {i}", model.id());
            }
        }
    }
}
