//! VCD waveform generation (paper §6.2).
//!
//! "Waveform generation requires (1) exposing both internal and I/O
//! signals and (2) recording signal values when they change." The probes
//! of the [`SimPlan`](rteaal_dfg::SimPlan) give every signal a unique
//! slot that persists across cycles, so change detection is a per-cycle
//! compare against the previous value — exactly the mechanism the paper
//! describes.

use std::fmt::Write as _;

/// An incremental VCD (Value Change Dump) writer.
#[derive(Debug)]
pub(crate) struct VcdWriter {
    header: String,
    body: String,
    /// `(slot, width, vcd id)` per signal.
    signals: Vec<(u32, u8, String)>,
    /// Last dumped value per signal (`None` before the first sample).
    last: Vec<Option<u64>>,
}

/// Generates the short VCD identifier for signal `i`.
fn vcd_id(mut i: usize) -> String {
    let mut id = String::new();
    loop {
        id.push((b'!' + (i % 94) as u8) as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    id
}

impl VcdWriter {
    /// Starts a VCD for the given `(name, slot, width)` signals.
    pub(crate) fn new(design: &str, signals: &[(String, u32, u8)]) -> Self {
        let mut header = String::new();
        let _ = writeln!(header, "$date RTeAAL Sim $end");
        let _ = writeln!(header, "$version rteaal-sim reproduction $end");
        let _ = writeln!(header, "$timescale 1ns $end");
        let _ = writeln!(header, "$scope module {design} $end");
        let mut sigs = Vec::with_capacity(signals.len());
        for (i, (name, slot, width)) in signals.iter().enumerate() {
            let id = vcd_id(i);
            // VCD identifiers cannot contain whitespace; hierarchical
            // dots become underscores for display.
            let display = name.replace('.', "_");
            let _ = writeln!(header, "$var wire {width} {id} {display} $end");
            sigs.push((*slot, *width, id));
        }
        let _ = writeln!(header, "$upscope $end");
        let _ = writeln!(header, "$enddefinitions $end");
        let last_len = sigs.len();
        VcdWriter {
            header,
            body: String::new(),
            signals: sigs,
            last: vec![None; last_len],
        }
    }

    /// Samples all signals at time `t`, emitting changes only.
    pub(crate) fn sample(&mut self, t: u64, read: impl Fn(u32) -> u64) {
        let mut changes = String::new();
        for (k, (slot, width, id)) in self.signals.iter().enumerate() {
            let v = read(*slot);
            if self.last[k] == Some(v) {
                continue;
            }
            self.last[k] = Some(v);
            if *width == 1 {
                let _ = writeln!(changes, "{}{}", v & 1, id);
            } else {
                let _ = writeln!(changes, "b{:b} {}", v, id);
            }
        }
        if !changes.is_empty() {
            let _ = writeln!(self.body, "#{t}");
            self.body.push_str(&changes);
        }
    }

    /// Finishes and returns the complete VCD text.
    pub(crate) fn finish(self) -> String {
        format!("{}{}", self.header, self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_compact() {
        let ids: Vec<String> = (0..200).map(vcd_id).collect();
        let set: std::collections::HashSet<&String> = ids.iter().collect();
        assert_eq!(set.len(), 200);
        assert_eq!(vcd_id(0), "!");
        assert_eq!(vcd_id(93), "~");
        assert_eq!(vcd_id(94).len(), 2);
    }

    #[test]
    fn only_changes_are_dumped() {
        let signals = vec![("a".to_string(), 0u32, 4u8), ("b".to_string(), 1u32, 1u8)];
        let mut w = VcdWriter::new("T", &signals);
        let values = [[3u64, 0], [3, 1], [3, 1], [7, 1]];
        for (t, vals) in values.iter().enumerate() {
            w.sample(t as u64, |slot| vals[slot as usize]);
        }
        let vcd = w.finish();
        // t0: both dump; t1: only b; t2: nothing; t3: only a.
        assert!(vcd.contains("#0\nb11 !\n1\"") || vcd.contains("#0\nb11 !\n0\""));
        assert!(!vcd.contains("#2"));
        assert!(vcd.contains("#3\nb111 !"));
    }

    #[test]
    fn header_declares_vars() {
        let signals = vec![("core.alu.out".to_string(), 5u32, 16u8)];
        let w = VcdWriter::new("Chip", &signals);
        let text = w.finish();
        assert!(text.contains("$scope module Chip $end"));
        assert!(text.contains("$var wire 16 ! core_alu_out $end"));
        assert!(text.contains("$enddefinitions"));
    }
}
