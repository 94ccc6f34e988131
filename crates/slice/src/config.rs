//! Configuration of the TSLICE analysis (the decay function of Algorithm 1,
//! line 5, plus engineering knobs).

/// The shape of the faith decay (Algorithm 1, line 10). The paper uses a
/// linear decay and notes "other more sophisticated decay functions can also
/// be used"; the exponential variant implements that suggestion and is
/// exercised by the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecayFunction {
    /// `F ← max(min(F_pre, F_i) − d_i, 0)` — the paper's linear decay.
    Linear,
    /// `F ← min(F_pre, F_i) · (1 − scale · d_i)`, cut to 0 below `floor`:
    /// faith halves roughly every `ln 2 / (scale · d_i)` visits, so early
    /// instructions keep more relative weight and the tail is cut sooner.
    Exponential {
        /// Multiplier on the per-instruction decay rate.
        scale: f64,
        /// Faith below this value is treated as exhausted.
        floor: f64,
    },
}

impl DecayFunction {
    /// Applies the decay to the incoming faith `f` with per-instruction
    /// decay constant `d`.
    pub fn apply(self, f: f64, d: f64) -> f64 {
        match self {
            DecayFunction::Linear => (f - d).max(0.0),
            DecayFunction::Exponential { scale, floor } => {
                let next = f * (1.0 - (scale * d).clamp(0.0, 1.0));
                if next < floor {
                    0.0
                } else {
                    next
                }
            }
        }
    }
}

/// Tunable parameters of TSLICE.
///
/// The defaults are the paper's heuristically tuned values: a linear decay of
/// `0.001` per visited instruction, `0.005` for `push`/`pop` (including the
/// implicit stack traffic of `call`/`ret`), and `0.01` for instructions in an
/// indirect addressing mode.
#[derive(Debug, Clone, PartialEq)]
pub struct TsliceConfig {
    /// Decay for instructions using an indirect addressing mode (`[loc]`).
    pub decay_indirect: f64,
    /// Decay for `push`/`pop`/`call`/`ret`.
    pub decay_stack: f64,
    /// Decay for every other instruction.
    pub decay_default: f64,
    /// The decay-function shape.
    pub decay_function: DecayFunction,
    /// Cut a path entirely (faith := 0) at indirect calls, matching the
    /// paper's worked example where `call [_Xlength_error]` gets faith 0.
    pub cut_indirect_calls: bool,
    /// Track `lea r1, [r2+c]` as pointer arithmetic instead of killing `r1`
    /// (the paper kills it — see rules `[Mov-rv-kill]`/`[Mov-riv-kill]`
    /// applied to `lea` in Figure 2). Off by default; used as an ablation.
    pub lea_tracks_pointer_arith: bool,
    /// Record a per-instruction trace of rule firings (the Figure 2 table).
    pub trace: bool,
    /// Hard cap on processed (pre, inst) steps, a safety net on top of the
    /// faith bound.
    pub max_steps: usize,
    /// Byte window around the criterion address treated as part of the
    /// variable (container headers are at most 16 bytes under MSVC x86).
    pub criterion_window: i64,
    /// Consult per-callee mod-ref summaries (`tiara-dataflow`'s
    /// [`summarize_program`](tiara_dataflow::summarize_program)) at direct
    /// calls: in addition to descending into the callee, the traversal takes
    /// a *summary edge* straight to the return site, applying the callee's
    /// summarized effects (pop the return address, kill exactly the clobbered
    /// registers, invalidate argument-reachable stack cells) instead of
    /// relying on the interior path to survive. A container pointer held in
    /// a callee-saved register or an untouched spill slot then keeps its
    /// value set across an opaque-looking helper — even one whose body is cut
    /// by [`cut_indirect_calls`](Self::cut_indirect_calls). Off by default.
    pub use_call_summaries: bool,
}

impl Default for TsliceConfig {
    fn default() -> TsliceConfig {
        TsliceConfig {
            decay_indirect: 0.01,
            decay_stack: 0.005,
            decay_default: 0.001,
            decay_function: DecayFunction::Linear,
            cut_indirect_calls: true,
            lea_tracks_pointer_arith: false,
            trace: false,
            max_steps: 4_000_000,
            criterion_window: 16,
            use_call_summaries: false,
        }
    }
}

impl TsliceConfig {
    /// A configuration that records rule-firing traces.
    pub fn with_trace() -> TsliceConfig {
        TsliceConfig { trace: true, ..TsliceConfig::default() }
    }

    /// A configuration that slices across direct calls through mod-ref
    /// summaries (see [`use_call_summaries`](Self::use_call_summaries)).
    pub fn with_call_summaries() -> TsliceConfig {
        TsliceConfig { use_call_summaries: true, ..TsliceConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = TsliceConfig::default();
        assert_eq!(c.decay_indirect, 0.01);
        assert_eq!(c.decay_stack, 0.005);
        assert_eq!(c.decay_default, 0.001);
        assert!(!c.trace);
        assert!(!c.use_call_summaries, "summary edges are opt-in");
    }

    #[test]
    fn with_call_summaries_enables_summary_edges() {
        let c = TsliceConfig::with_call_summaries();
        assert!(c.use_call_summaries);
    }

    #[test]
    fn with_trace_enables_trace() {
        assert!(TsliceConfig::with_trace().trace);
    }

    #[test]
    fn linear_decay_matches_paper_formula() {
        assert_eq!(DecayFunction::Linear.apply(1.0, 0.001), 0.999);
        assert_eq!(DecayFunction::Linear.apply(0.0005, 0.001), 0.0);
    }

    #[test]
    fn exponential_decay_is_multiplicative_with_floor() {
        let e = DecayFunction::Exponential { scale: 100.0, floor: 0.01 };
        let f1 = e.apply(1.0, 0.001); // × 0.9
        assert!((f1 - 0.9).abs() < 1e-12);
        assert_eq!(e.apply(0.0101, 0.001), 0.0, "below the floor after decay");
        // Saturation: a huge rate clamps at 0, never negative.
        assert_eq!(e.apply(1.0, 1.0), 0.0);
    }
}
