//! Session execution: named and positional run paths over the pre-inference plan.

use super::plan::{Operand, Step};
use super::{Session, F32_BYTES};
use crate::CoreError;
use mnn_backend::Inputs;
use mnn_obs::RunRecorder;
use mnn_tensor::{DataType, Tensor, TensorView};
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
        if !self.ran {
            return Err(CoreError::InvalidInput(format!(
                "output '{name}' is not available: run the session first"
            )));
        }
        Ok(&self.outputs[position])
    }

    /// Run one inference with named inputs, e.g.
    /// `session.run_with(&[("data", &tensor)])`.
    ///
    /// Returns the outputs in graph-output order; they also stay readable through
    /// [`Session::output`], which is why this hands back copies — the only
    /// allocation of a steady-state call. Outputs are usually small (logits);
    /// the [`Session::input_mut`] + [`Session::run_session`] +
    /// [`Session::output`] flow allocates nothing at all.
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
        for (index, (name, tensor)) in inputs.iter().enumerate() {
            let position = self.resolve_input(name)?;
            let earlier = &inputs[..index];
            if earlier
                .iter()
                .any(|(other, _)| self.resolve_input(other).ok() == Some(position))
            {
                return Err(CoreError::InvalidInput(format!(
                    "input '{name}' was provided more than once"
                )));
            }
            self.check_input_shape(position, tensor)?;
        }
        for (name, tensor) in inputs {
            self.stage(self.resolve_input(name)?, tensor);
        }
        self.execute()?;
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
        for (position, tensor) in inputs.iter().enumerate() {
            self.stage(position, tensor);
        }
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

    /// Copy an input of the checked shape into the staged tensor's own storage.
    fn stage(&mut self, position: usize, tensor: &Tensor) {
        let staged = &mut self.inputs[position];
        match tensor.try_data_f32() {
            Ok(data)
                if staged.data().data_type() == DataType::F32
                    && staged.data().len() == data.len() =>
            {
                staged.data_f32_mut().copy_from_slice(data)
            }
            // A caller put something else behind `input_mut`, or passes a
            // tensor no kernel will take: the run that follows reports it.
            _ => *staged = tensor.clone(),
        }
    }

    /// The inference loop: pure computation over the plan's step list (paper
    /// Fig. 2's "execute" stage). Schemes, placements, operands, arena regions
    /// and scratch were all decided — and all memory allocated — by
    /// pre-inference; step *i* writes its planned region and moves on.
    fn execute(&mut self) -> Result<(), CoreError> {
        // reset GPU virtual clocks so per-run stats are meaningful
        for backend in &mut self.backends {
            backend.reset_virtual_clock();
        }
        let start = Instant::now();

        // Opt-in per-op timing, for the session's profiler and for the request
        // trace active on this thread (see `mnn_obs::context`). When neither is
        // listening `recorder` is `None` and the loop takes no timestamps.
        let mut recorder = RunRecorder::begin(self.config.profiler.as_ref());

        let arena = &mut self.arena[self.arena_start..];
        for index in 0..self.plan.steps.len() {
            let (produced, rest) = self.plan.steps.split_at_mut(index);
            let step = &mut rest[0];
            // A correct plan puts every region the step reads wholly below or
            // wholly above the one it writes; a wrong one fails a slice bound
            // in `StepInputs::get` instead of aliasing.
            let (below, rest) = arena.split_at_mut(step.offset);
            let (output, above) = rest.split_at_mut(step.len);
            let inputs = StepInputs {
                operands: &step.inputs,
                produced,
                staged: &self.inputs,
                below,
                above,
                above_start: step.offset + step.len,
            };
            // Bytes are summed *before* the timestamp so accounting never
            // inflates the measured kernel time.
            let timed = recorder.is_some().then(|| {
                let elements: usize = (0..inputs.count())
                    .map(|i| inputs.get(i).data().len())
                    .sum();
                (elements + step.len, Instant::now())
            });
            match step.execution.as_mut() {
                Some(execution) => execution.run(&inputs, output, &mut self.scratch)?,
                None => {
                    // Preparation was not decoupled: pay it inside the
                    // inference loop (Table 2 "w/o").
                    let node = self.graph.node(step.node)?;
                    let mut execution = self.backends[step.backend_index].on_create(
                        node,
                        &self.graph,
                        &step.hint,
                    )?;
                    execution.run(&inputs, output, &mut self.scratch)?;
                }
            }
            if let (Some(recorder), Some((elements, kernel_start))) = (&mut recorder, timed) {
                let bytes = (elements * F32_BYTES) as u64;
                recorder.record(&step.meta, kernel_start, bytes);
            }
            if cfg!(debug_assertions) {
                // The plan may hand these regions to the next step: a read
                // after this point is a read of someone else's data.
                for dead in &step.release {
                    let dead = &produced[*dead];
                    arena[dead.offset..][..dead.len].fill(f32::NAN);
                }
            }
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

        // Graph outputs are the only copies: out of the arena, which the next
        // run overwrites, into the tensors `output` hands out.
        for (operand, tensor) in self.plan.outputs.iter().zip(&mut self.outputs) {
            let produced = match *operand {
                // A graph output is normally produced by a node; a degenerate
                // graph may also mark an input as an output (passthrough).
                Operand::Input(position) => self.inputs[position].data_f32(),
                Operand::Step(step) => {
                    let step = &self.plan.steps[step];
                    &arena[step.offset..][..step.len]
                }
            };
            tensor.data_f32_mut().copy_from_slice(produced);
        }
        self.ran = true;
        Ok(())
    }
}

/// The activation inputs of one step, resolved on demand from its operands:
/// a staged graph input, or the region an earlier step wrote — found in
/// whichever half of the arena the running step's own output left it.
struct StepInputs<'a> {
    operands: &'a [Operand],
    /// The steps before the running one (producers precede their readers).
    produced: &'a [Step],
    staged: &'a [Tensor],
    /// The arena below the running step's output region, and from
    /// `above_start`, just past it, on.
    below: &'a [f32],
    above: &'a [f32],
    above_start: usize,
}

impl Inputs for StepInputs<'_> {
    fn count(&self) -> usize {
        self.operands.len()
    }

    fn get(&self, index: usize) -> TensorView<'_> {
        match self.operands[index] {
            Operand::Input(position) => self.staged[position].view(),
            Operand::Step(step) => {
                let step = &self.produced[step];
                let data = if step.offset + step.len <= self.below.len() {
                    &self.below[step.offset..][..step.len]
                } else {
                    &self.above[step.offset - self.above_start..][..step.len]
                };
                TensorView::new(&step.shape, data)
            }
        }
    }
}
