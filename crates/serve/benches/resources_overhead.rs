//! Memory-accounting overhead guard
//! (`cargo bench -p mnn-serve --bench resources_overhead`).
//!
//! The resource ledger's hot path is the plan swap: every `resize_session`
//! re-checks what the session holds against what it has charged, and re-charges
//! its arena account (two relaxed atomic ops) only when the arena or scratch
//! grew. This bench flip-flops a session between two cached geometries — the
//! fastest resize the engine can do, so accounting cost has nowhere to hide —
//! with accounting on vs off, and **asserts** the ratio so a regression that
//! drags a lock or a snapshot into the swap fails CI instead of taxing every
//! shape change.

use mnn_core::{Interpreter, Session, SessionConfig};
use mnn_models::{build, ModelKind};
use mnn_tensor::Shape;
use std::time::Instant;

const SMALL: usize = 16;
const LARGE: usize = 24;

fn make_session(accounted: bool) -> Session {
    let mut config = SessionConfig::cpu(1);
    config.account_resources = accounted;
    if accounted {
        config.resource_scope = Some("resources-overhead-bench".to_string());
    }
    Interpreter::from_graph(build(ModelKind::TinyCnn, 1, SMALL))
        .expect("zoo graph is valid")
        .create_session(config)
        .expect("session builds")
}

fn flip(session: &mut Session, size: usize) {
    session
        .resize_input("data", Shape::nchw(1, 3, size, size))
        .expect("known input");
    session.resize_session().expect("resize succeeds");
}

/// Mean wall time per resize over `iters` small↔large round trips, after
/// warming the plan cache so every resize is a cache-hit swap.
fn mean_swap_ns(session: &mut Session, iters: usize) -> f64 {
    for size in [LARGE, SMALL, LARGE, SMALL] {
        flip(session, size);
    }
    assert!(
        session.plan_cache_hits() > 0,
        "warm-up must hit the plan cache"
    );
    let start = Instant::now();
    for _ in 0..iters {
        flip(session, LARGE);
        flip(session, SMALL);
    }
    start.elapsed().as_secs_f64() * 1e9 / (2 * iters) as f64
}

fn main() {
    let mut plain = make_session(false);
    let mut accounted = make_session(true);

    const ITERS: usize = 50;
    // Timing on shared CI machines is noisy; accept the best of several
    // attempts before declaring a regression, interleaving the measurements
    // so frequency scaling hits both sessions equally.
    let mut best_ratio = f64::INFINITY;
    for _ in 0..5 {
        let base = mean_swap_ns(&mut plain, ITERS);
        let with = mean_swap_ns(&mut accounted, ITERS);
        best_ratio = best_ratio.min(with / base);
        if best_ratio <= 1.10 {
            break;
        }
    }

    // The accounted arm must actually have exercised the ledger, and the
    // unaccounted arm must have stayed out of it entirely.
    let scope = mnn_obs::resources::scope_snapshot("resources-overhead-bench");
    assert!(
        scope.resident_bytes > 0,
        "accounted session left no trace in the ledger"
    );

    assert!(
        best_ratio <= 1.25,
        "memory accounting costs {:.1}% per plan swap — the hot path must stay \
         a handful of atomic stores",
        (best_ratio - 1.0) * 100.0
    );
    println!("accounting overhead: best ratio {best_ratio:.3} (<= 1.25 required)");
}
