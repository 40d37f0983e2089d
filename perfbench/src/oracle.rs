//! The serial oracle: `Model::forward` on one thread, computed at set-up
//! for every generated input and compared against every answer.

use crate::rng::SplitMix64;
use relserve_nn::{Layer, Model};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::Tensor;

/// Tolerance for dense (UDF-centric) answers against the serial oracle;
/// the repository's dense-vs-serial tests use the same value.
pub const DENSE_TOL: f32 = 1e-4;
/// Tolerance when any layer ran on block relations; the repository's
/// relation-vs-dense tests use the same value.
pub const RELATIONAL_TOL: f32 = 1e-3;

/// `model` with every dense bias drawn uniform in `[-0.5, 0.5)` from
/// `rng`. The zoo models start with zero biases, and against those an
/// executor that skipped the bias add would still match the oracle.
pub fn with_biases(mut model: Model, rng: &mut SplitMix64) -> Model {
    for layer in model.layers_mut() {
        if let Layer::Dense { bias, .. } = layer {
            let values = rng.features(bias.len()).iter().map(|v| v * 0.5).collect();
            *bias = Tensor::from_vec([bias.len()], values).expect("bias shape");
        }
    }
    model
}

/// Serial logits for `rows` rows of `model`'s input, row-major.
pub fn logits(model: &Model, data: &[f32], rows: usize) -> Vec<f32> {
    let width = data.len() / rows.max(1);
    let batch = Tensor::from_vec([rows, width], data.to_vec()).expect("oracle batch shape");
    model
        .forward(&batch, &Parallelism::serial())
        .expect("serial oracle forward")
        .data()
        .to_vec()
}

/// True when `class` is an argmax of `row` up to `tol`: a near tie may
/// resolve either way once the summation order changes.
pub fn class_ok(row: &[f32], class: usize, tol: f32) -> bool {
    let best = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    row.get(class).is_some_and(|v| *v >= best - tol)
}

/// True when every predicted class is an argmax of its oracle row.
pub fn predictions_ok(oracle: &[f32], outputs: usize, predictions: &[u32], tol: f32) -> bool {
    oracle.len() == predictions.len() * outputs
        && predictions
            .iter()
            .zip(oracle.chunks(outputs))
            .all(|(p, row)| class_ok(row, *p as usize, tol))
}

/// True when `got` matches the oracle elementwise within `tol`.
pub fn logits_ok(oracle: &[f32], got: &[f32], tol: f32) -> bool {
    oracle.len() == got.len() && oracle.iter().zip(got).all(|(a, b)| (a - b).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_up_to_tolerance() {
        assert!(class_ok(&[0.1, 0.9], 1, 0.0));
        assert!(!class_ok(&[0.1, 0.9], 0, 1e-4));
        assert!(class_ok(&[0.50005, 0.5], 1, 1e-4));
        assert!(!class_ok(&[0.1, 0.9], 2, 1.0));
    }

    #[test]
    fn biases_are_seeded_and_non_zero() {
        let mut rng = relserve_nn::init::seeded_rng(1);
        let model = relserve_nn::zoo::fraud_fc_256(&mut rng).unwrap();
        let a = with_biases(model.clone(), &mut SplitMix64::stream(5, 0));
        let b = with_biases(model, &mut SplitMix64::stream(5, 0));
        let biases = |m: &Model| -> Vec<f32> {
            m.layers()
                .iter()
                .flat_map(|l| match l {
                    Layer::Dense { bias, .. } => bias.data().to_vec(),
                    _ => Vec::new(),
                })
                .collect()
        };
        assert_eq!(biases(&a), biases(&b));
        assert_eq!(biases(&a).len(), 256 + 2);
        assert!(biases(&a).iter().all(|v| *v != 0.0 && v.abs() <= 0.5));
    }

    #[test]
    fn whole_answers() {
        let oracle = [0.2, 0.8, 0.7, 0.3];
        assert!(predictions_ok(&oracle, 2, &[1, 0], DENSE_TOL));
        assert!(!predictions_ok(&oracle, 2, &[1, 1], DENSE_TOL));
        assert!(!predictions_ok(&oracle, 2, &[1], DENSE_TOL));
        assert!(logits_ok(&oracle, &[0.2, 0.8005, 0.7, 0.3], RELATIONAL_TOL));
        assert!(!logits_ok(&oracle, &[0.2, 0.8005, 0.7, 0.3], DENSE_TOL));
    }
}
