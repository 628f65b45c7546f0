//! The closed-loop load generator: every load thread issues its next op only
//! when the previous one has returned a checked result.

use crate::stats::{Edge, OpSample, ThreadLog};
use crate::sys;
use crate::trace::{Span, Tracer};
use std::sync::Barrier;
use std::time::Instant;

/// One load thread's op. It is handed the op's number, performs the op on the
/// input that number selects, checks the output against the reference and
/// returns whether it was correct. At most two clients run at a time.
pub type Client<'a> = Box<dyn FnMut(u64, &mut Tracer) -> bool + Send + 'a>;

/// Length of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub blocks: usize,
    pub block_s: f64,
}

pub struct PhaseLog {
    pub threads: Vec<ThreadLog>,
    pub spans: Vec<Span>,
}

/// Drive every client from its own thread for `phase.blocks` blocks. With
/// `traced` each op is recorded as a span, on the time axis of `origin`.
pub fn run_phase(
    clients: Vec<Client<'_>>,
    phase: Phase,
    traced: bool,
    origin: Instant,
) -> PhaseLog {
    assert!(
        (1..=2).contains(&clients.len()),
        "the load generator uses one or two threads"
    );
    let barrier = Barrier::new(clients.len());
    let start = Instant::now();
    let results: Vec<(ThreadLog, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(thread, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let tracer = Tracer::new(traced, origin, thread as u64 + 1);
                    barrier.wait();
                    drive(client, phase, start, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut log = PhaseLog {
        threads: Vec::new(),
        spans: Vec::new(),
    };
    for (thread, spans) in results {
        log.threads.push(thread);
        log.spans.extend(spans);
    }
    log
}

fn edge(start: Instant) -> Edge {
    let rss_kib = sys::rss_kib();
    Edge {
        cpu_s: sys::process_cpu_s(),
        t_s: start.elapsed().as_secs_f64(),
        rss_kib,
    }
}

fn drive(
    mut client: Client<'_>,
    phase: Phase,
    start: Instant,
    mut tracer: Tracer,
) -> (ThreadLog, Vec<Span>) {
    let mut log = ThreadLog::default();
    log.edges.push(edge(start));
    let mut number = 0u64;
    while log.edges.len() <= phase.blocks {
        let start_s = start.elapsed().as_secs_f64();
        let ok = tracer.op(number, |t| client(number, t));
        let end_s = start.elapsed().as_secs_f64();
        log.samples.push(OpSample { start_s, end_s, ok });
        number += 1;
        if end_s >= log.edges.len() as f64 * phase.block_s {
            log.edges.push(edge(start));
        }
    }
    (log, tracer.into_spans())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::blocks_from;

    #[test]
    fn blocks_hold_whole_ops_and_every_op_lands_in_one() {
        let sleepy = |ms: u64| -> Client<'static> {
            Box::new(move |n, t| {
                t.span("sleep", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(ms))
                });
                n % 7 != 3
            })
        };
        let phase = Phase {
            blocks: 4,
            block_s: 0.05,
        };
        let log = run_phase(vec![sleepy(2), sleepy(3)], phase, true, Instant::now());
        assert_eq!(log.threads.len(), 2);
        for thread in &log.threads {
            assert_eq!(thread.edges.len(), 5);
            assert!(thread.edges.windows(2).all(|w| w[1].t_s > w[0].t_s));
            assert!(thread.edges.windows(2).all(|w| w[1].cpu_s >= w[0].cpu_s));
        }
        let blocks = blocks_from(&log.threads);
        assert_eq!(blocks.len(), 4);
        let total: usize = log.threads.iter().map(|t| t.samples.len()).sum();
        assert_eq!(
            blocks.iter().map(|b| b.ops + b.failed).sum::<usize>(),
            total
        );
        assert!(blocks.iter().all(|b| b.failed > 0 && b.median_ms >= 2.0));
        // One `op` span per op, each with its `sleep` child.
        assert_eq!(log.spans.iter().filter(|s| s.name == "op").count(), total);
        assert!(crate::trace::op_coverage(&log.spans).unwrap().0 > 0.5);
    }
}
