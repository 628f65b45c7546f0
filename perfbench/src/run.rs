//! One run of one workload: set-ups, the timed phase, and either the
//! end-to-end metrics (untraced) or the per-layer metrics (traced).

use crate::layers;
use crate::load::{run_phase, Phase};
use crate::report::{Metrics, RunResult, END_TO_END, PER_LAYER};
use crate::stats::{
    blocks_from, lower_quartile, median, summarize, tail_percentile, Block, PhaseSummary, BLOCKS,
};
use crate::sys;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{Inputs, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// How much a run measures. Everything scales with `--seconds`, so that
/// `--check` can run the same code briefly.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// The timed phase of an untraced run. A traced run spends a quarter of
    /// its blocks untraced and half of them traced, and the rest of its time
    /// on the layer probes.
    pub phase: Phase,
    /// Length of one side run of a layer probe.
    pub side_s: f64,
    /// Repetitions of a short probe; the fastest is reported.
    pub reps: usize,
    /// The most pixels a side a model's input may have. Only `--smoke` sets
    /// it, to halve the tuner's work on the two 128 px models.
    pub px_cap: usize,
}

/// However cheap a set-up is, no more than this many are timed on either side
/// of the timed phase.
const MOST_SETUPS_PER_SIDE: usize = 10;

impl Scale {
    pub fn for_seconds(seconds: u64) -> Scale {
        Scale {
            phase: Phase {
                blocks: BLOCKS,
                block_s: seconds as f64 / BLOCKS as f64,
            },
            side_s: seconds as f64 / 20.0,
            reps: 3,
            px_cap: usize::MAX,
        }
    }

    /// Two blocks and single probes: enough to see every metric once.
    pub fn brief(block_s: f64, px_cap: usize) -> Scale {
        Scale {
            phase: Phase { blocks: 2, block_s },
            side_s: block_s / 2.0,
            reps: 1,
            px_cap,
        }
    }

    /// Whether one side of the timed phase has timed enough cold set-ups: one
    /// fewer than `reps` at least (an expensive set-up is the bulk of a run's
    /// fixed time), and cheap ones for as long as another fits in the length
    /// of a side run.
    fn enough_setups(&self, done: usize, spent_s: f64, last_s: f64) -> bool {
        done >= MOST_SETUPS_PER_SIDE
            || (done >= self.reps.saturating_sub(1).max(1) && spent_s + last_s > self.side_s)
    }

    fn part(&self, numerator: usize, denominator: usize) -> Phase {
        Phase {
            blocks: (self.phase.blocks * numerator / denominator).max(2),
            ..self.phase
        }
    }
}

pub struct RunOptions {
    pub seed: u64,
    pub scale: Scale,
    pub traced: bool,
    /// Where a traced run writes its spans.
    pub out: PathBuf,
}

fn timed<R>(f: impl FnOnce() -> Result<R, String>) -> Result<(R, f64), String> {
    let start = Instant::now();
    let result = f()?;
    Ok((result, start.elapsed().as_secs_f64()))
}

struct PhaseOutcome {
    blocks: Vec<Block>,
    /// Latency in ms of every op that completed correctly.
    latencies: Vec<f64>,
    spans: Vec<Span>,
}

/// One timed phase on the live system.
fn phase_on<W: Workload>(
    live: &mut W,
    inputs: &Inputs,
    references: &[Vec<f32>],
    phase: Phase,
    traced: bool,
    origin: Instant,
) -> Result<PhaseOutcome, String> {
    let clients = live.clients(inputs, references)?;
    let log = run_phase(clients, phase, traced, origin);
    Ok(PhaseOutcome {
        blocks: blocks_from(&log.threads),
        latencies: log
            .threads
            .iter()
            .flat_map(|t| t.samples.iter().filter(|s| s.ok).map(|s| s.latency_ms()))
            .collect(),
        spans: log.spans,
    })
}

fn valid<W: Workload>(blocks: &[Block]) -> Result<PhaseSummary, String> {
    summarize(blocks).map_err(|e| format!("{}: invalid run: {e}", W::NAME))
}

pub fn run<W: Workload>(options: &RunOptions) -> Result<RunResult, String> {
    let inputs = Inputs::generate(options.seed, W::MODEL.size.min(options.scale.px_cap));
    if options.traced {
        traced_run::<W>(options, &inputs)
    } else {
        untraced_run::<W>(options, &inputs)
    }
}

fn untraced_run<W: Workload>(options: &RunOptions, inputs: &Inputs) -> Result<RunResult, String> {
    let scale = &options.scale;
    let origin = Instant::now();
    let mut quiet = Tracer::new(false, origin, 0);
    let mut setup_s = Vec::new();

    // Cold set-ups on both sides of the timed phase, so that they straddle
    // machine states. A set-up's time includes the end of the system it set
    // up. The last one before the timed phase stays live.
    let side = Instant::now();
    let (mut live, live_setup_s) = loop {
        let (system, seconds) = timed(|| W::set_up(inputs, &mut quiet))?;
        if scale.enough_setups(setup_s.len() + 1, side.elapsed().as_secs_f64(), seconds) {
            break (system, seconds);
        }
        let ((), tear_down_s) = timed(|| system.tear_down())?;
        setup_s.push(seconds + tear_down_s);
    };
    let references = live.references(inputs)?;

    // Memory of the timed phase only: what set-up allocated and freed goes
    // back to the kernel before the high-water mark is reset.
    sys::trim_heap();
    let peak = sys::PeakRss::start();
    let blocks = phase_on(&mut live, inputs, &references, scale.phase, false, origin)?.blocks;
    let peak_rss_mib = peak.peak_mib(blocks.iter().map(|b| b.rss_kib));

    let ((), tear_down_s) = timed(|| live.tear_down())?;
    setup_s.push(live_setup_s + tear_down_s);
    let (side, before) = (Instant::now(), setup_s.len());
    loop {
        let ((), seconds) = timed(|| W::set_up(inputs, &mut quiet)?.tear_down())?;
        setup_s.push(seconds);
        if scale.enough_setups(
            setup_s.len() - before,
            side.elapsed().as_secs_f64(),
            seconds,
        ) {
            break;
        }
    }

    let summary = valid::<W>(&blocks)?;
    let mut metrics = Metrics::default();
    metrics.set("setup_s", lower_quartile(&setup_s));
    metrics.set("latency_ms", summary.latency_ms);
    metrics.set("throughput_ops_s", summary.ops_per_s);
    metrics.set("cpu_ms_per_op", summary.cpu_ms_per_op);
    metrics.set("peak_rss_mib", peak_rss_mib);
    let series = |f: fn(&Block) -> f64| {
        blocks
            .iter()
            .map(|b| format!("{:.3}", f(b)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("{}: block median ms: {}", W::NAME, series(|b| b.median_ms));
    eprintln!("{}: block ops/s: {}", W::NAME, series(|b| b.ops_per_s));
    eprintln!(
        "{}: block cpu ms/op: {}",
        W::NAME,
        series(|b| b.cpu_ms_per_op)
    );
    eprintln!(
        "{}: {} ops in {} blocks ({} valid, {} slow), {} failed; set-ups {:.4?} s",
        W::NAME,
        summary.ops,
        blocks.len(),
        summary.valid_blocks,
        summary.slow_blocks,
        summary.failed,
        setup_s
    );
    Ok(RunResult {
        workload: W::NAME,
        seed: options.seed,
        traced: false,
        attempted: (summary.ops + summary.failed) as u64,
        failed: summary.failed as u64,
        metrics: metrics.in_order(&END_TO_END)?,
    })
}

fn traced_run<W: Workload>(options: &RunOptions, inputs: &Inputs) -> Result<RunResult, String> {
    let scale = &options.scale;
    let origin = Instant::now();
    let mut tracer = Tracer::new(true, origin, 0);
    let mut metrics = Metrics::default();

    let mut live = tracer.span("setup", |t| W::set_up(inputs, t))?;
    let plan = live.plan();
    let references = live.references(inputs)?;

    // The same ops untraced and traced, from one process: their ratio is what
    // tracing costs.
    let quarter = scale.part(1, 4);
    let untraced = phase_on(&mut live, inputs, &references, quarter, false, origin)?;
    let half = scale.part(1, 2);
    let PhaseOutcome {
        blocks,
        mut latencies,
        mut spans,
    } = phase_on(&mut live, inputs, &references, half, true, origin)?;
    tracer.span("tear_down", |_| live.tear_down())?;

    let untraced = valid::<W>(&untraced.blocks)?;
    let summary = valid::<W>(&blocks)?;
    latencies.sort_by(f64::total_cmp);
    let (tail_pct, tail_ms) = tail_percentile(&latencies)
        .ok_or_else(|| format!("{}: too few ops for a tail percentile", W::NAME))?;
    metrics.set("client.latency_p50_ms", median(&mut latencies));
    metrics.set("client.latency_p99_ms", tail_ms);
    metrics.set("client.latency_max_ms", latencies[latencies.len() - 1]);
    metrics.set("client.slow_blocks", summary.slow_blocks as f64);
    metrics.set(
        "client.trace_overhead_ratio",
        summary.latency_ms / untraced.latency_ms,
    );
    let (coverage, lowest_coverage) = trace::op_coverage(&spans).unwrap_or((0.0, 0.0));

    layers::probe(
        W::MODEL.at(inputs.size),
        plan,
        scale,
        &mut tracer,
        &mut metrics,
    )?;

    spans.extend(tracer.into_spans());
    if let Some(dir) = options.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&options.out, trace::render(W::NAME, options.seed, &spans))
        .map_err(|e| format!("{}: {e}", options.out.display()))?;
    eprintln!(
        "{}: traced {} ops ({} failed), tail is p{tail_pct:.1} of {} samples; child spans cover {:.2} % of the ops' time, {:.1} % of the least covered op; {} spans in {}",
        W::NAME,
        summary.ops,
        summary.failed + untraced.failed,
        latencies.len(),
        coverage * 100.0,
        lowest_coverage * 100.0,
        spans.len(),
        options.out.display()
    );
    if coverage < 0.95 {
        return Err(format!(
            "{}: child spans cover only {:.1} % of the ops' time",
            W::NAME,
            coverage * 100.0
        ));
    }
    Ok(RunResult {
        workload: W::NAME,
        seed: options.seed,
        traced: true,
        attempted: (summary.ops + summary.failed + untraced.ops + untraced.failed) as u64,
        failed: (summary.failed + untraced.failed) as u64,
        metrics: metrics.in_order(&PER_LAYER)?,
    })
}
