//! Expressions over signal ids: what typing makes of a module's
//! expressions, and what the flat module hands to graph construction.
//!
//! [`check_module`](crate::infer::check_module) numbers a module's signals
//! densely and resolves every reference to the [`SignalId`] of the signal
//! it names, once; no name is looked up again after that. The expressions
//! of a module live in one arena of [`Term`]s, each naming its operands by
//! [`TermId`] — always an earlier one — so flattening stamps a module into
//! the flat design by shifting ids, `when` resolution shares a condition
//! between the muxes it makes instead of copying it, and graph construction
//! walks an expression with an explicit stack.

use crate::ops::PrimOp;

/// Index of a signal in a module's, or the flat design's, signal table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub u32);

impl SignalId {
    /// The index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a [`Term`] in its arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of a typed expression: [`Expr`](crate::ast::Expr) with its
/// references resolved and its operands in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// A signal, by id.
    Signal(SignalId),
    /// Unsigned literal.
    UIntLit { value: u64, width: u32 },
    /// Signed literal.
    SIntLit { value: i64, width: u32 },
    /// 2-way conditional select over `[cond, tval, fval]`.
    Mux([TermId; 3]),
    /// `validif(cond, value)` over `[cond, value]`.
    ValidIf([TermId; 2]),
    /// A primitive op: its first [`PrimOp::num_args`] `args` and first
    /// [`PrimOp::num_params`] `params` are used, the rest are 0. Typing
    /// checked both counts, and no op takes more than two of either.
    Prim {
        op: PrimOp,
        args: [TermId; 2],
        params: [u64; 2],
    },
}

impl Term {
    /// The operands of the term, in operand order.
    pub fn operands(&self) -> &[TermId] {
        match self {
            Term::Signal(_) | Term::UIntLit { .. } | Term::SIntLit { .. } => &[],
            Term::Mux(args) => args,
            Term::ValidIf(args) => args,
            Term::Prim { op, args, .. } => &args[..op.num_args()],
        }
    }

    /// The static parameters of a primitive op (none for other terms).
    pub fn params(&self) -> &[u64] {
        match self {
            Term::Prim { op, params, .. } => &params[..op.num_params()],
            _ => &[],
        }
    }

    /// The term with every operand moved `by` places up the arena and every
    /// signal renamed by `signal`: a module's term as one instance of it
    /// sees it.
    pub fn stamped(self, by: u32, signal: impl Fn(SignalId) -> SignalId) -> Term {
        let up = |t: TermId| TermId(t.0 + by);
        match self {
            Term::Signal(s) => Term::Signal(signal(s)),
            Term::UIntLit { .. } | Term::SIntLit { .. } => self,
            Term::Mux(args) => Term::Mux(args.map(up)),
            Term::ValidIf(args) => Term::ValidIf(args.map(up)),
            Term::Prim { op, args, params } => Term::Prim {
                op,
                args: args.map(up),
                params,
            },
        }
    }
}

/// Appends `term` to the arena `terms`; its id.
pub(crate) fn push(terms: &mut Vec<Term>, term: Term) -> TermId {
    terms.push(term);
    TermId(terms.len() as u32 - 1)
}

/// Whether the terms under `a` and `b` spell the same expression: what
/// `when` resolution asks before it muxes two values. An explicit stack,
/// not recursion: a target connected under a long run of `when`s is a mux
/// chain as deep as the run.
pub fn same_expr(terms: &[Term], a: TermId, b: TermId) -> bool {
    let mut pending = vec![(a, b)];
    while let Some((a, b)) = pending.pop() {
        if a == b {
            continue;
        }
        let (x, y) = (&terms[a.index()], &terms[b.index()]);
        let shallow = match (x, y) {
            (Term::Prim { op: p, .. }, Term::Prim { op: q, .. }) => {
                p == q && x.params() == y.params()
            }
            (Term::Mux(_), Term::Mux(_)) | (Term::ValidIf(_), Term::ValidIf(_)) => true,
            _ => x == y,
        };
        if !shallow {
            return false;
        }
        pending.extend(
            x.operands()
                .iter()
                .copied()
                .zip(y.operands().iter().copied()),
        );
    }
    true
}
