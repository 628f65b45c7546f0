//! The model zoo at the sizes the whole-zoo integration tests build it at.

use mnn::models::ModelKind;

/// Every zoo model: the five of `tests/quant_conformance.rs` at its sizes, the
/// other three at their sibling's.
pub const MODELS: [(ModelKind, usize); 8] = [
    (ModelKind::TinyCnn, 16),
    (ModelKind::MobileNetV1, 32),
    (ModelKind::MobileNetV2, 32),
    (ModelKind::SqueezeNetV1_0, 48),
    (ModelKind::SqueezeNetV1_1, 48),
    (ModelKind::ResNet18, 32),
    (ModelKind::ResNet50, 32),
    (ModelKind::InceptionV3, 80),
];
