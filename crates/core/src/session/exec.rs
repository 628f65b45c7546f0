//! Session execution: named and positional run paths over the pre-inference plan.

use super::plan::Operand;
use super::Session;
use crate::CoreError;
use mnn_obs::RunRecorder;
use mnn_tensor::Tensor;
use std::time::Instant;

/// Timing of one inference.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Wall-clock milliseconds spent in `run` (CPU work measured for real).
    pub wall_ms: f64,
    /// Virtual milliseconds accumulated by simulated GPU backends during the run.
    pub gpu_virtual_ms: f64,
}

impl Session {
    /// Mutable access to the staged input tensor named `name`.
    ///
    /// Fill it with data, then call [`Session::run_session`]. After a
    /// [`Session::resize_input`] + [`Session::resize_session`], the staged tensor
    /// has the new shape (zero-filled).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] for an unknown input name.
    pub fn input_mut(&mut self, name: &str) -> Result<&mut Tensor, CoreError> {
        let position = self.resolve_input(name)?;
        Ok(&mut self.inputs[position])
    }

    /// The output tensor named `name`, produced by the most recent run.
    ///
    /// Output names are the producing node's name (e.g. `"prob"`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] for an unknown output name or when no
    /// run has produced outputs yet.
    pub fn output(&self, name: &str) -> Result<&Tensor, CoreError> {
        let position = self
            .graph
            .output_named(name)
            .and_then(|id| self.graph.outputs().iter().position(|out| *out == id))
            .ok_or_else(|| self.unknown_output(name))?;
        self.outputs.get(position).ok_or_else(|| {
            CoreError::InvalidInput(format!(
                "output '{name}' is not available: run the session first"
            ))
        })
    }

    /// Run one inference with named inputs, e.g.
    /// `session.run_with(&[("data", &tensor)])`.
    ///
    /// Returns the outputs in graph-output order; they also stay readable through
    /// [`Session::output`], which is why this hands back copies. Outputs are
    /// usually small (logits); the [`Session::input_mut`] +
    /// [`Session::run_session`] + [`Session::output`] flow pays no copy at all.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on unknown or duplicated names,
    /// missing inputs or shape mismatches, and propagates backend errors.
    pub fn run_with(&mut self, inputs: &[(&str, &Tensor)]) -> Result<Vec<Tensor>, CoreError> {
        if inputs.len() != self.graph.inputs().len() {
            return Err(CoreError::InvalidInput(format!(
                "expected {} inputs, got {}",
                self.graph.inputs().len(),
                inputs.len()
            )));
        }
        // Resolve and validate the complete input list before staging anything:
        // a rejected call must not leave a half-updated staging area behind.
        let mut provided: Vec<usize> = Vec::with_capacity(inputs.len());
        for (name, tensor) in inputs {
            let position = self.resolve_input(name)?;
            if provided.contains(&position) {
                return Err(CoreError::InvalidInput(format!(
                    "input '{name}' was provided more than once"
                )));
            }
            self.check_input_shape(position, tensor)?;
            provided.push(position);
        }
        for (position, (_, tensor)) in provided.into_iter().zip(inputs) {
            self.inputs[position] = (*tensor).clone();
        }
        self.run_session()?;
        Ok(self.outputs.clone())
    }

    /// Run one inference from the staged input tensors (the
    /// [`Session::input_mut`] flow, mirroring MNN's `runSession`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when a staged input's shape disagrees
    /// with the current geometry (e.g. after writing a differently-shaped tensor
    /// into [`Session::input_mut`] without resizing), and propagates backend
    /// errors.
    pub fn run_session(&mut self) -> Result<(), CoreError> {
        for (position, staged) in self.inputs.iter().enumerate() {
            self.check_input_shape(position, staged)?;
        }
        self.execute()
    }

    /// Run one inference with positional inputs (compatibility wrapper).
    ///
    /// `inputs` must match the graph's declared inputs in order and shape. New
    /// code should prefer the named paths — [`Session::run_with`] or
    /// [`Session::input_mut`] + [`Session::run_session`] — which stay stable under
    /// model refactors that reorder inputs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on input-count/shape mismatch and
    /// propagates backend errors.
    pub fn run(&mut self, inputs: &[Tensor]) -> Result<Vec<Tensor>, CoreError> {
        if inputs.len() != self.inputs.len() {
            return Err(CoreError::InvalidInput(format!(
                "expected {} inputs, got {}",
                self.inputs.len(),
                inputs.len()
            )));
        }
        // Validate every input before staging any (see `run_with`).
        for (position, tensor) in inputs.iter().enumerate() {
            self.check_input_shape(position, tensor)?;
        }
        self.inputs.clone_from_slice(inputs);
        self.execute()?;
        Ok(self.outputs.clone())
    }

    /// Run `runs` timed inferences after `warmup` untimed ones and return the mean
    /// wall-clock and virtual-GPU milliseconds per inference.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Session::run`].
    pub fn benchmark(
        &mut self,
        inputs: &[Tensor],
        warmup: usize,
        runs: usize,
    ) -> Result<RunStats, CoreError> {
        for _ in 0..warmup {
            self.run(inputs)?;
        }
        let mut total = RunStats::default();
        for _ in 0..runs.max(1) {
            self.run(inputs)?;
            let stats = self.last_stats();
            total.wall_ms += stats.wall_ms;
            total.gpu_virtual_ms += stats.gpu_virtual_ms;
        }
        let n = runs.max(1) as f64;
        Ok(RunStats {
            wall_ms: total.wall_ms / n,
            gpu_virtual_ms: total.gpu_virtual_ms / n,
        })
    }

    /// The position of the graph input named `name`.
    pub(super) fn resolve_input(&self, name: &str) -> Result<usize, CoreError> {
        self.graph
            .input_named(name)
            .and_then(|id| self.graph.inputs().iter().position(|input| *input == id))
            .ok_or_else(|| {
                CoreError::InvalidInput(format!(
                    "unknown input '{name}'; graph inputs are {:?}",
                    self.graph.input_names()
                ))
            })
    }

    fn unknown_output(&self, name: &str) -> CoreError {
        CoreError::InvalidInput(format!(
            "unknown output '{name}'; graph outputs are {:?}",
            self.graph.output_names()
        ))
    }

    fn check_input_shape(&self, position: usize, tensor: &Tensor) -> Result<(), CoreError> {
        let id = self.graph.inputs()[position];
        if let Some(expected) = &self.graph.tensor_info(id)?.shape {
            if expected != tensor.shape() {
                return Err(CoreError::InvalidInput(format!(
                    "input {id} expects shape {expected}, got {} (use resize_input + \
                     resize_session to change the geometry)",
                    tensor.shape()
                )));
            }
        }
        Ok(())
    }

    /// The inference loop: pure computation over the plan's step list (paper
    /// Fig. 2's "execute" stage). Schemes, placements, operand slots and release
    /// points were all decided by pre-inference; nothing is looked up here.
    fn execute(&mut self) -> Result<(), CoreError> {
        // reset GPU virtual clocks so per-run stats are meaningful
        for backend in &mut self.backends {
            backend.reset_virtual_clock();
        }
        for backend in &mut self.backends {
            backend.on_execute_begin();
        }
        let start = Instant::now();

        // Opt-in per-op timing, for the session's profiler and for the request
        // trace active on this thread (see `mnn_obs::context`). When neither is
        // listening `recorder` is `None` and the loop takes no timestamps.
        let mut recorder = RunRecorder::begin(self.config.profiler.as_ref());

        // Slot `i` holds the output of step `i` until its last reader has run.
        // Graph inputs are read by reference from the staged tensors — no copy
        // on the hot path.
        let staged_inputs = &self.inputs;
        let mut slots: Vec<Option<Tensor>> = Vec::new();
        slots.resize_with(self.plan.steps.len(), || None);

        for (index, step) in self.plan.steps.iter_mut().enumerate() {
            let activation_inputs: Vec<&Tensor> = step
                .inputs
                .iter()
                .map(|operand| match *operand {
                    Operand::Input(position) => &staged_inputs[position],
                    Operand::Slot(slot) => slots[slot]
                        .as_ref()
                        .expect("the plan orders producers before readers and releases after"),
                })
                .collect();
            let mut output = Tensor::zeros(mnn_tensor::Shape::vector(1));
            // Bytes are summed *before* the timestamp so accounting never
            // inflates the measured kernel time.
            let timed = recorder.is_some().then(|| {
                let input_bytes: u64 = activation_inputs.iter().map(|t| t.byte_size() as u64).sum();
                (input_bytes, Instant::now())
            });
            match step.execution.as_mut() {
                Some(execution) => execution.run(&activation_inputs, &mut output)?,
                None => {
                    // Preparation was not decoupled: pay it inside the
                    // inference loop (Table 2 "w/o").
                    let node = self.graph.node(step.node)?;
                    let mut execution = self.backends[step.backend_index].on_create(
                        node,
                        &self.graph,
                        &step.hint,
                    )?;
                    execution.run(&activation_inputs, &mut output)?;
                }
            }
            drop(activation_inputs);
            if let (Some(recorder), Some((input_bytes, kernel_start))) = (&mut recorder, timed) {
                let bytes = input_bytes + output.byte_size() as u64;
                recorder.record(&step.meta, kernel_start, bytes);
            }
            slots[index] = Some(output);
            for slot in &step.release {
                slots[*slot] = None;
            }
        }

        for backend in &mut self.backends {
            backend.on_execute_end();
        }
        if let Some(recorder) = recorder {
            recorder.finish();
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
        let gpu_virtual_ms: f64 = self.backends.iter().map(|b| b.virtual_elapsed_ms()).sum();
        self.last_stats = RunStats {
            wall_ms,
            gpu_virtual_ms,
        };

        self.outputs.clear();
        for operand in &self.plan.outputs {
            // A graph output is normally produced by a node; a degenerate graph
            // may also mark an input as an output (passthrough).
            let tensor = match *operand {
                Operand::Input(position) => self.inputs[position].clone(),
                Operand::Slot(slot) => slots[slot].take().ok_or_else(|| {
                    CoreError::InvalidInput(format!(
                        "graph output #{} was never produced",
                        self.outputs.len()
                    ))
                })?,
            };
            self.outputs.push(tensor);
        }
        Ok(())
    }
}
