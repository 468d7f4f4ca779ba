//! Extended General Einsum (EDGE) notation (paper §2.3–2.4, [Odemuyiwa
//! et al. 2024]).
//!
//! EDGE separates a computation into three *actions* — map (∧), reduce
//! (∨), and populate (≪) — each paired with a *compute operator* (what is
//! done to values) and a *coordinate operator* (where in the iteration
//! space it happens). This module is the declarative side: it names the
//! operators, assembles [`Einsum`]s and [`Cascade`]s, and renders them in
//! the paper's notation. Execution lives in [`crate::eval`].

use std::fmt;

/// Coordinate operators: which region of the iteration space an action
/// covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoordOp {
    /// `∩` — points where *both* inputs are non-empty.
    Intersect,
    /// `∪` — points where *either* input is non-empty.
    Union,
    /// `←` — points where the *left* input is non-empty.
    TakeLeft,
    /// `→` — points where the *right* input is non-empty.
    TakeRight,
    /// `1` — all points (pass-through).
    PassThrough,
    /// A named custom operator (e.g. the `max2` populate operator of
    /// Appendix A, or `op_s[n]`).
    Custom(&'static str),
}

impl fmt::Display for CoordOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordOp::Intersect => f.write_str("∩"),
            CoordOp::Union => f.write_str("∪"),
            CoordOp::TakeLeft => f.write_str("←"),
            CoordOp::TakeRight => f.write_str("→"),
            CoordOp::PassThrough => f.write_str("1"),
            CoordOp::Custom(name) => f.write_str(name),
        }
    }
}

/// Compute operators: what happens to the data values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeOp {
    /// `×`
    Mul,
    /// `+`
    Add,
    /// `←` — copy the left operand.
    TakeLeft,
    /// `→` — copy the right operand.
    TakeRight,
    /// `1` — pass-through (no computation).
    PassThrough,
    /// `ANY` — any non-empty contributor (used by the `LI_{i+1}` Einsum of
    /// Cascade 1; all contributors are known disjoint).
    Any,
    /// A named custom operator (`op_r[n]`, `op_u[n]`, …).
    Custom(&'static str),
}

impl fmt::Display for ComputeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputeOp::Mul => f.write_str("×"),
            ComputeOp::Add => f.write_str("+"),
            ComputeOp::TakeLeft => f.write_str("←"),
            ComputeOp::TakeRight => f.write_str("→"),
            ComputeOp::PassThrough => f.write_str("1"),
            ComputeOp::Any => f.write_str("ANY"),
            ComputeOp::Custom(name) => f.write_str(name),
        }
    }
}

/// One action: a compute operator paired with a coordinate operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Action {
    /// Which of map/reduce/populate this is.
    pub kind: ActionKind,
    /// The compute operator.
    pub compute: ComputeOp,
    /// The coordinate operator.
    pub coord: CoordOp,
}

/// The three EDGE action kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionKind {
    /// `∧` — combines operands from the input tensors.
    Map,
    /// `∨` — aggregates map temporaries.
    Reduce,
    /// `≪` — writes reduce temporaries to the output.
    Populate,
}

impl Action {
    /// A map action.
    pub fn map(compute: ComputeOp, coord: CoordOp) -> Self {
        Action {
            kind: ActionKind::Map,
            compute,
            coord,
        }
    }

    /// A reduce action.
    pub fn reduce(compute: ComputeOp, coord: CoordOp) -> Self {
        Action {
            kind: ActionKind::Reduce,
            compute,
            coord,
        }
    }

    /// A populate action.
    pub fn populate(compute: ComputeOp, coord: CoordOp) -> Self {
        Action {
            kind: ActionKind::Populate,
            compute,
            coord,
        }
    }

    /// Whether both operators are pass-through (omitted from notation).
    fn is_trivial(&self) -> bool {
        self.compute == ComputeOp::PassThrough && self.coord == CoordOp::PassThrough
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sigil = match self.kind {
            ActionKind::Map => "∧",
            ActionKind::Reduce => "∨",
            ActionKind::Populate => "≪",
        };
        write!(f, "{sigil}{}({})", self.compute, self.coord)
    }
}

/// A subscripted tensor reference, e.g. `A_{k,m}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorRef {
    /// Tensor name.
    pub name: String,
    /// Rank-variable subscripts (lowercase index letters; `o*` style
    /// starred variables mark populate-coordinate fiber outputs,
    /// Appendix A).
    pub subscripts: Vec<String>,
}

impl TensorRef {
    /// Creates a reference, e.g. `TensorRef::new("A", ["k", "m"])`.
    pub fn new(name: impl Into<String>, subs: impl IntoIterator<Item = impl Into<String>>) -> Self {
        TensorRef {
            name: name.into(),
            subscripts: subs.into_iter().map(Into::into).collect(),
        }
    }
}

impl fmt::Display for TensorRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.subscripts.is_empty() {
            f.write_str(&self.name)
        } else {
            write!(f, "{}_{{{}}}", self.name, self.subscripts.join(","))
        }
    }
}

/// One extended Einsum: output = inputs :: actions.
#[derive(Debug, Clone, PartialEq)]
pub struct Einsum {
    /// Left-hand side.
    pub output: TensorRef,
    /// Right-hand side operands.
    pub inputs: Vec<TensorRef>,
    /// Non-trivial actions, in map → reduce → populate order.
    pub actions: Vec<Action>,
    /// Optional side condition (e.g. `n ∉ n_sel`).
    pub condition: Option<String>,
}

impl Einsum {
    /// Creates an Einsum.
    pub fn new(
        output: TensorRef,
        inputs: impl IntoIterator<Item = TensorRef>,
        actions: impl IntoIterator<Item = Action>,
    ) -> Self {
        Einsum {
            output,
            inputs: inputs.into_iter().collect(),
            actions: actions.into_iter().filter(|a| !a.is_trivial()).collect(),
            condition: None,
        }
    }

    /// Attaches a side condition.
    fn with_condition(mut self, cond: impl Into<String>) -> Self {
        self.condition = Some(cond.into());
        self
    }
}

impl fmt::Display for Einsum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = ", self.output)?;
        for (i, input) in self.inputs.iter().enumerate() {
            if i > 0 {
                write!(f, " · ")?;
            }
            write!(f, "{input}")?;
        }
        if !self.actions.is_empty() {
            write!(f, " ::")?;
            for a in &self.actions {
                write!(f, " {a}")?;
            }
        }
        if let Some(cond) = &self.condition {
            write!(f, ", {cond}")?;
        }
        Ok(())
    }
}

/// A cascade: a sequence of dependent Einsums, optionally closed over an
/// iterative rank (`⋄: i ≡ I`).
#[derive(Debug, Clone, PartialEq)]
pub struct Cascade {
    /// Cascade name (for display).
    pub name: String,
    /// The Einsums, in dependency order.
    pub einsums: Vec<Einsum>,
    /// Iterative rank closed over, if any (paper §2.4 "Iterative Ranks").
    pub iterative_rank: Option<String>,
}

impl fmt::Display for Cascade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Cascade {}:", self.name)?;
        for e in &self.einsums {
            writeln!(f, "  {e}")?;
        }
        if let Some(rank) = &self.iterative_rank {
            writeln!(f, "  ⋄: {} ≡ {}", rank.to_lowercase(), rank)?;
        }
        Ok(())
    }
}

/// The RTeAAL Sim Einsum cascade (paper Cascade 1), as notation.
pub fn rteaal_cascade() -> Cascade {
    use ComputeOp as C;
    use CoordOp as K;
    let oi = Einsum::new(
        TensorRef::new("OI", ["i", "n", "o", "r", "s"]),
        [
            TensorRef::new("LI", ["i", "r"]),
            TensorRef::new("OIM", ["i", "n", "o", "r", "s"]),
        ],
        [Action::map(C::TakeLeft, K::TakeRight)],
    );
    let lo = Einsum::new(
        TensorRef::new("LO", ["i", "n", "s"]),
        [TensorRef::new("OI", ["i", "n", "o", "r", "s"])],
        [
            Action::map(C::Custom("op_u[n]"), K::TakeLeft),
            Action::reduce(C::Custom("op_r[n]"), K::TakeRight),
        ],
    );
    let lo_sel = Einsum::new(
        TensorRef::new("LO_sel", ["i", "n", "o*", "r", "s"]),
        [TensorRef::new("OI", ["i", "n", "o", "r", "s"])],
        [
            Action::map(C::PassThrough, K::TakeLeft),
            Action::populate(C::PassThrough, K::Custom("op_s[n]")),
        ],
    );
    let li_next = Einsum::new(
        TensorRef::new("LI", ["i+1", "s"]),
        [TensorRef::new("LO", ["i", "n", "s"])],
        [
            Action::map(C::PassThrough, K::TakeLeft),
            Action::reduce(C::Any, K::TakeRight),
        ],
    )
    .with_condition("n ∉ n_sel");
    let li_next_sel = Einsum::new(
        TensorRef::new("LI", ["i+1", "s"]),
        [TensorRef::new("LO_sel", ["i", "n", "o", "r", "s"])],
        [
            Action::map(C::PassThrough, K::TakeLeft),
            Action::reduce(C::Any, K::TakeRight),
        ],
    )
    .with_condition("n ∈ n_sel");
    Cascade {
        name: "RTeAAL Sim".into(),
        einsums: vec![oi, lo, lo_sel, li_next, li_next_sel],
        iterative_rank: Some("I".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product_notation_matches_figure_3() {
        // Z = A_m · B_m :: ∧×(∩) ∨+(∪)
        let e = Einsum::new(
            TensorRef::new("Z", Vec::<String>::new()),
            [TensorRef::new("A", ["m"]), TensorRef::new("B", ["m"])],
            [
                Action::map(ComputeOp::Mul, CoordOp::Intersect),
                Action::reduce(ComputeOp::Add, CoordOp::Union),
            ],
        );
        assert_eq!(e.to_string(), "Z = A_{m} · B_{m} :: ∧×(∩) ∨+(∪)");
    }

    #[test]
    fn take_left_right_notation_matches_einsum_2() {
        let e = Einsum::new(
            TensorRef::new("Z", ["m"]),
            [TensorRef::new("A", ["m"]), TensorRef::new("B", ["m"])],
            [Action::map(ComputeOp::TakeLeft, CoordOp::TakeRight)],
        );
        assert_eq!(e.to_string(), "Z_{m} = A_{m} · B_{m} :: ∧←(→)");
    }

    #[test]
    fn trivial_actions_are_omitted() {
        let e = Einsum::new(
            TensorRef::new("Z", ["m"]),
            [TensorRef::new("A", ["m"])],
            [
                Action::map(ComputeOp::PassThrough, CoordOp::TakeLeft),
                Action::populate(ComputeOp::PassThrough, CoordOp::PassThrough),
            ],
        );
        // The populate action is fully pass-through, so it disappears.
        assert_eq!(e.to_string(), "Z_{m} = A_{m} :: ∧1(←)");
    }

    #[test]
    fn rteaal_cascade_renders_all_five_einsums() {
        let c = rteaal_cascade();
        let text = c.to_string();
        assert_eq!(c.einsums.len(), 5);
        assert!(text.contains("op_u[n]"));
        assert!(text.contains("op_r[n]"));
        assert!(text.contains("op_s[n]"));
        assert!(text.contains("n ∉ n_sel"));
        assert!(text.contains("⋄: i ≡ I"));
        assert!(text.contains("LO_sel_{i,n,o*,r,s}"));
    }

    #[test]
    fn operator_symbols() {
        assert_eq!(CoordOp::Intersect.to_string(), "∩");
        assert_eq!(CoordOp::Union.to_string(), "∪");
        assert_eq!(ComputeOp::Any.to_string(), "ANY");
        assert_eq!(ComputeOp::Custom("max2").to_string(), "max2");
    }
}
