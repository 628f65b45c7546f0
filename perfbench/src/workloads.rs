//! The four workloads. Each is a closed loop over the stable top of the `mnn`
//! API, so that kernels, schemes and telemetry can be refactored underneath
//! without touching the benchmark. Why each exists is in the README.

use crate::load::Client;
use crate::trace::Tracer;
use crate::wire;
use mnn::converter::{quantize_weights, ModelFile};
use mnn::http::{
    HttpConfig, HttpServer, InferRequest, InferResponse, ModelRegistry, ServeOptions, TensorJson,
};
use mnn::models::{build, ModelKind};
use mnn::serve::Server;
use mnn::tensor::{Shape, Tensor};
use mnn::{Graph, Interpreter, Session, SessionConfig, TuningMode};
use std::collections::BTreeMap;

/// Inputs a run cycles through.
pub const POOL: usize = 8;

/// The zoo's models name their input `data` and have one output.
pub const INPUT: &str = "data";

/// The seed decides the values of the pool's inputs and the order they are
/// used in, never their geometry: timing must not depend on the seed.
pub struct Inputs {
    pub tensors: Vec<Tensor>,
    /// Side of the square inputs, in pixels.
    pub size: usize,
    order: Vec<usize>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    pub fn generate(seed: u64, size: usize) -> Inputs {
        let mut state = seed;
        let shape = Shape::nchw(1, 3, size, size);
        let tensors = (0..POOL)
            .map(|_| {
                let data = (0..shape.num_elements())
                    .map(|_| (splitmix64(&mut state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
                    .collect();
                Tensor::from_vec(shape.clone(), data)
            })
            .collect();
        let mut order: Vec<usize> = (0..POOL).collect();
        for i in (1..POOL).rev() {
            order.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
        }
        Inputs {
            tensors,
            size,
            order,
        }
    }

    /// The pool index op `number` uses.
    pub fn pick(&self, number: u64) -> usize {
        self.order[number as usize % POOL]
    }
}

/// A zoo model as a workload configures it.
#[derive(Debug, Clone, Copy)]
pub struct Model {
    pub kind: ModelKind,
    pub size: usize,
    pub int8: bool,
    pub tuning: TuningMode,
}

impl Model {
    pub fn graph(&self, tracer: &mut Tracer) -> Graph {
        let mut graph = tracer.span("models.build", |_| build(self.kind, 1, self.size));
        if self.int8 {
            tracer.span("converter.quantize_weights", |_| {
                quantize_weights(&mut graph)
            });
        }
        graph
    }

    pub fn config(&self, threads: usize) -> SessionConfig {
        SessionConfig::builder()
            .threads(threads)
            .tuning(self.tuning)
            .build()
    }

    pub fn session(&self, threads: usize, tracer: &mut Tracer) -> Result<Session, String> {
        let graph = self.graph(tracer);
        let interpreter = tracer
            .span("core.from_graph", |_| Interpreter::from_graph(graph))
            .map_err(|e| e.to_string())?;
        tracer
            .span("core.create_session", |_| {
                interpreter.create_session(self.config(threads))
            })
            .map_err(|e| e.to_string())
    }

    pub fn with_tuning(self, tuning: TuningMode) -> Model {
        Model { tuning, ..self }
    }

    /// The same model at another input resolution (`--smoke` halves it).
    pub fn at(self, size: usize) -> Model {
        Model { size, ..self }
    }
}

/// Tiny-CNN at 64 px on the cost-model plan: what `session_cold` and
/// `http_closed` run, and what the `converter`, `serve`, `http` and `obs`
/// probes use.
pub const TINY: Model = Model {
    kind: ModelKind::TinyCnn,
    size: 64,
    int8: false,
    tuning: TuningMode::Off,
};

/// The scheme pre-inference chose for every convolution, as one string.
pub fn plan_table(session: &Session) -> String {
    session
        .report()
        .placements
        .iter()
        .filter_map(|p| p.scheme.map(|scheme| format!("{}={scheme}", p.name)))
        .collect::<Vec<_>>()
        .join(" ")
}

pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn run_once(session: &mut Session, input: &Tensor) -> Result<Vec<f32>, String> {
    let mut outputs = session
        .run_with(&[(INPUT, input)])
        .map_err(|e| e.to_string())?;
    if outputs.len() != 1 {
        return Err(format!("expected one output, got {}", outputs.len()));
    }
    Ok(outputs.remove(0).into_vec_f32())
}

/// Report the first few failed ops of a client with their reason; every one is
/// counted by the caller.
struct Complaints(u32);

impl Complaints {
    fn check(&mut self, workload: &str, number: u64, result: Result<bool, String>) -> bool {
        let reason = match result {
            Ok(true) => return true,
            Ok(false) => "output differs from the reference".to_string(),
            Err(e) => e,
        };
        if self.0 < 3 {
            eprintln!("{workload}: op {number} failed: {reason}");
            self.0 += 1;
        }
        false
    }
}

/// What the run harness needs from a workload.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// The model the workload runs, which the `core` and `tune` probes of its
    /// traced run measure too.
    const MODEL: Model;

    /// One cold set-up: all a user pays before ops can be issued.
    fn set_up(inputs: &Inputs, tracer: &mut Tracer) -> Result<Self, String>;

    /// The output every op on pool input `i` must reproduce bit for bit, after
    /// checking the live system against an independent one.
    fn references(&mut self, inputs: &Inputs) -> Result<Vec<Vec<f32>>, String>;

    /// The load threads: one op each at a time.
    fn clients<'a>(
        &'a mut self,
        inputs: &'a Inputs,
        references: &'a [Vec<f32>],
    ) -> Result<Vec<Client<'a>>, String>;

    /// The scheme the live system's plan gives every convolution, when the
    /// plan is tuned and so may differ from one set-up to the next.
    fn plan(&self) -> Option<String> {
        None
    }

    /// End of the live system; counted as part of the set-up it ends.
    fn tear_down(self) -> Result<(), String> {
        Ok(())
    }
}

/// `session_f32` and `session_int8`: one tuned session, one thread calling
/// `run_with`.
pub struct TunedSession<const INT8: bool> {
    session: Session,
}

pub type SessionF32 = TunedSession<false>;
pub type SessionInt8 = TunedSession<true>;

fn top1(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

impl<const INT8: bool> TunedSession<INT8> {
    /// A tuned plan may pick other kernels than the cost model does, so its
    /// outputs are held to a bound, not to the bits: 1e-3 absolute for f32; for
    /// int8 the bound `tests/quant_conformance.rs` derives (2/254 per
    /// quantized layer) and the same top-1 class, unless the reference itself
    /// has the two classes closer than the outputs differ.
    fn agrees(tuned: &[f32], cost_model: &[f32], quantized_layers: usize) -> Result<(), String> {
        let diff = tuned
            .iter()
            .zip(cost_model)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        let bound = if INT8 {
            quantized_layers as f32 * 2.0 / 254.0
        } else {
            1e-3
        };
        let finite = tuned.iter().chain(cost_model).all(|v| v.is_finite());
        if tuned.len() != cost_model.len() || !finite || diff > bound {
            return Err(format!(
                "tuned plan differs from the cost-model plan by {diff}, bound {bound}"
            ));
        }
        let (a, b) = (top1(tuned), top1(cost_model));
        if INT8 && a != b && cost_model[b] - cost_model[a] > 2.0 * diff {
            return Err(format!("tuned plan's top-1 is {a}, cost-model plan's {b}"));
        }
        Ok(())
    }
}

impl<const INT8: bool> Workload for TunedSession<INT8> {
    const NAME: &'static str = if INT8 { "session_int8" } else { "session_f32" };
    const MODEL: Model = Model {
        kind: if INT8 {
            ModelKind::MobileNetV1
        } else {
            ModelKind::SqueezeNetV1_1
        },
        size: 128,
        int8: INT8,
        tuning: TuningMode::Full,
    };

    fn set_up(inputs: &Inputs, tracer: &mut Tracer) -> Result<Self, String> {
        // Without the process-wide tuning cache this is what a fresh process
        // pays: the tuner measures every candidate again.
        tracer.span("tune.clear_process_caches", |_| {
            mnn::tune::clear_process_caches()
        });
        Ok(TunedSession {
            session: Self::MODEL.at(inputs.size).session(1, tracer)?,
        })
    }

    fn references(&mut self, inputs: &Inputs) -> Result<Vec<Vec<f32>>, String> {
        let mut quiet = Tracer::new(false, std::time::Instant::now(), 0);
        let mut cost_model = Self::MODEL
            .at(inputs.size)
            .with_tuning(TuningMode::Off)
            .session(1, &mut quiet)?;
        let quantized_layers = cost_model
            .graph()
            .nodes()
            .iter()
            .filter(|n| n.op.is_quantized())
            .count();
        inputs
            .tensors
            .iter()
            .map(|input| {
                let tuned = run_once(&mut self.session, input)?;
                Self::agrees(&tuned, &run_once(&mut cost_model, input)?, quantized_layers)?;
                Ok(tuned)
            })
            .collect()
    }

    fn plan(&self) -> Option<String> {
        Some(plan_table(&self.session))
    }

    fn clients<'a>(
        &'a mut self,
        inputs: &'a Inputs,
        references: &'a [Vec<f32>],
    ) -> Result<Vec<Client<'a>>, String> {
        let session = &mut self.session;
        let mut complaints = Complaints(0);
        Ok(vec![Box::new(move |number, tracer| {
            let i = inputs.pick(number);
            let output = tracer.span("core.run_with", |_| run_once(session, &inputs.tensors[i]));
            tracer.span("check", |_| {
                let ok = output.map(|o| same_bits(&o, &references[i]));
                complaints.check(Self::NAME, number, ok)
            })
        })])
    }
}

/// `session_cold`: every op loads the model from bytes, prepares a session
/// with the default plan, runs once and drops everything.
pub struct SessionCold {
    bytes: Vec<u8>,
}

impl SessionCold {
    fn op(bytes: &[u8], input: &Tensor, tracer: &mut Tracer) -> Result<Vec<f32>, String> {
        let model = tracer
            .span("converter.from_bytes", |_| ModelFile::from_bytes(bytes))
            .map_err(|e| e.to_string())?;
        let interpreter = tracer
            .span("core.from_graph", |_| Interpreter::from_graph(model.graph))
            .map_err(|e| e.to_string())?;
        let mut session = tracer
            .span("core.create_session", |_| {
                interpreter.create_session(SessionConfig::cpu(1))
            })
            .map_err(|e| e.to_string())?;
        let output = tracer.span("core.run_with", |_| run_once(&mut session, input));
        tracer.span("core.drop", |_| drop((session, interpreter)));
        output
    }
}

impl Workload for SessionCold {
    const NAME: &'static str = "session_cold";
    const MODEL: Model = TINY;

    fn set_up(inputs: &Inputs, tracer: &mut Tracer) -> Result<Self, String> {
        let graph = Self::MODEL.graph(tracer);
        let bytes = tracer
            .span("converter.to_bytes", |_| ModelFile::new(graph).to_bytes())
            .map_err(|e| e.to_string())?;
        Self::op(&bytes, &inputs.tensors[0], tracer)?;
        Ok(SessionCold { bytes })
    }

    fn references(&mut self, inputs: &Inputs) -> Result<Vec<Vec<f32>>, String> {
        // Independent of the bytes: a session on the graph as built.
        let mut quiet = Tracer::new(false, std::time::Instant::now(), 0);
        let mut session = Self::MODEL.session(1, &mut quiet)?;
        inputs
            .tensors
            .iter()
            .map(|input| run_once(&mut session, input))
            .collect()
    }

    fn clients<'a>(
        &'a mut self,
        inputs: &'a Inputs,
        references: &'a [Vec<f32>],
    ) -> Result<Vec<Client<'a>>, String> {
        let bytes = &self.bytes;
        let mut complaints = Complaints(0);
        Ok(vec![Box::new(move |number, tracer| {
            let i = inputs.pick(number);
            let output = Self::op(bytes, &inputs.tensors[i], tracer);
            tracer.span("check", |_| {
                let ok = output.map(|o| same_bits(&o, &references[i]));
                complaints.check(Self::NAME, number, ok)
            })
        })])
    }
}

/// `http_closed`: the model behind `HttpServer` on loopback with the settings
/// the `mnn_http` binary ships (2 workers, batches of up to 8, 1 ms window,
/// 1 thread per worker, tuning off, tracing on), driven over one keep-alive
/// connection. Two closed-loop connections were measured to lock into one of
/// two phase patterns for a whole run (every block at 56 ms, or every block at
/// 68 ms), which no statistic repairs; what concurrency buys is read from
/// `serve.window8_ops_s` instead.
pub struct HttpClosed {
    server: HttpServer,
}

fn serve_options() -> ServeOptions {
    ServeOptions {
        session: TINY.config(1),
        ..ServeOptions::default()
    }
}

/// The serving runtime as the registry builds it for `http_closed`, in
/// process.
pub fn tiny_server() -> Result<Server, String> {
    let options = serve_options();
    Server::builder()
        .workers(options.workers)
        .max_batch(options.max_batch)
        .batch_window(options.batch_window)
        .session_config(options.session)
        .build(build(TINY.kind, 1, TINY.size))
        .map_err(|e| e.to_string())
}

pub fn tiny_http_server(tracer: &mut Tracer) -> Result<HttpServer, String> {
    let mut registry = ModelRegistry::new();
    tracer
        .span("http.register_zoo", |_| {
            registry.register_zoo(TINY.kind, TINY.size, &serve_options())
        })
        .map_err(|e| e.to_string())?;
    tracer
        .span("http.bind", |_| {
            HttpServer::bind("127.0.0.1:0", registry, HttpConfig::default())
        })
        .map_err(|e| e.to_string())
}

pub fn infer_request(input: &Tensor) -> Result<Vec<u8>, String> {
    let request = InferRequest {
        inputs: BTreeMap::from([(INPUT.to_string(), TensorJson::from_tensor(input))]),
    };
    let body = serde_json::to_vec(&request).map_err(|e| e.to_string())?;
    let path = format!("/v1/models/{}/infer", TINY.kind.name().to_ascii_lowercase());
    Ok(wire::post(&path, &body))
}

/// One infer round trip; the output's data when the server answered 200.
pub fn infer_over(
    connection: &mut wire::Connection,
    request: &[u8],
    tracer: &mut Tracer,
) -> Result<Vec<f32>, String> {
    let response = connection
        .round_trip(request, tracer)
        .map_err(|e| e.to_string())?;
    if response.status != 200 {
        return Err(format!("status {}", response.status));
    }
    tracer.span("http.decode", |_| {
        let mut decoded: InferResponse =
            serde_json::from_slice(connection.body(&response)).map_err(|e| e.to_string())?;
        if decoded.outputs.len() != 1 {
            return Err(format!(
                "expected one output, got {}",
                decoded.outputs.len()
            ));
        }
        Ok(decoded.outputs.remove(0).data)
    })
}

impl Workload for HttpClosed {
    const NAME: &'static str = "http_closed";
    const MODEL: Model = TINY;

    fn set_up(inputs: &Inputs, tracer: &mut Tracer) -> Result<Self, String> {
        let live = HttpClosed {
            server: tiny_http_server(tracer)?,
        };
        let request = infer_request(&inputs.tensors[0])?;
        let mut connection =
            wire::Connection::open(live.server.local_addr()).map_err(|e| e.to_string())?;
        infer_over(&mut connection, &request, tracer)?;
        Ok(live)
    }

    fn references(&mut self, inputs: &Inputs) -> Result<Vec<Vec<f32>>, String> {
        // The wire must not change a bit of what the serving runtime answers
        // in process.
        let server = tiny_server()?;
        let references = inputs
            .tensors
            .iter()
            .map(|input| {
                let mut outputs = server.infer(&[(INPUT, input)]).map_err(|e| e.to_string())?;
                Ok(outputs.remove(0).into_vec_f32())
            })
            .collect();
        server.shutdown();
        references
    }

    fn clients<'a>(
        &'a mut self,
        inputs: &'a Inputs,
        references: &'a [Vec<f32>],
    ) -> Result<Vec<Client<'a>>, String> {
        let requests: Vec<Vec<u8>> = inputs
            .tensors
            .iter()
            .map(infer_request)
            .collect::<Result<_, _>>()?;
        let mut connection =
            wire::Connection::open(self.server.local_addr()).map_err(|e| e.to_string())?;
        let mut complaints = Complaints(0);
        Ok(vec![Box::new(move |number, tracer| {
            let i = inputs.pick(number);
            let output = infer_over(&mut connection, &requests[i], tracer);
            tracer.span("check", |_| {
                let ok = output.map(|o| same_bits(&o, &references[i]));
                complaints.check(Self::NAME, number, ok)
            })
        })])
    }

    fn tear_down(self) -> Result<(), String> {
        let summary = self.server.shutdown();
        if summary.drained {
            Ok(())
        } else {
            Err("the server did not drain within its deadline".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_decides_values_and_order_but_not_geometry() {
        let (a, b, c) = (
            Inputs::generate(1, 8),
            Inputs::generate(1, 8),
            Inputs::generate(2, 8),
        );
        assert_eq!(a.tensors.len(), POOL);
        assert!(same_bits(a.tensors[3].data_f32(), b.tensors[3].data_f32()));
        assert!(!same_bits(a.tensors[3].data_f32(), c.tensors[3].data_f32()));
        assert_eq!(a.tensors[0].shape(), c.tensors[0].shape());
        assert!(a.tensors[0]
            .data_f32()
            .iter()
            .all(|v| (-1.0..1.0).contains(v)));
        let mut seen: Vec<usize> = (0..POOL as u64).map(|n| a.pick(n)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..POOL).collect::<Vec<_>>());
        assert_eq!(a.pick(3), a.pick(3 + POOL as u64));
    }
}
