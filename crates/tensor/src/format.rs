//! TeAAL per-rank format specifications (paper §2.5.2, Figures 6 and 12).
//!
//! A tensor's concrete representation is described rank by rank: each rank
//! is *uncompressed* (arrays sized by shape, coordinates implicit) or
//! *compressed* (arrays sized by occupancy, coordinates explicit), with a
//! coordinate bitwidth (`cbits`) and payload bitwidth (`pbits`). Setting a
//! bitwidth to zero eliminates that array entirely — the key move in the
//! paper's stepwise `OIM` compression (Figure 12 a→b→c).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether a rank's arrays are sized by shape or by occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RankFormat {
    /// Arrays sized by shape; coordinates implicit in array position.
    Uncompressed,
    /// Arrays sized by occupancy; coordinates explicit.
    Compressed,
}

impl fmt::Display for RankFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankFormat::Uncompressed => f.write_str("U"),
            RankFormat::Compressed => f.write_str("C"),
        }
    }
}

/// Format of one rank.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankSpec {
    /// Rank name (e.g. `"S"`).
    pub name: String,
    /// Compressed or uncompressed.
    pub format: RankFormat,
    /// Bits per explicit coordinate (0 = no coordinate array).
    pub cbits: u32,
    /// Bits per payload (0 = no payload array).
    pub pbits: u32,
}

impl RankSpec {
    /// An uncompressed rank (implicit coordinates).
    pub fn uncompressed(name: impl Into<String>, pbits: u32) -> Self {
        RankSpec {
            name: name.into(),
            format: RankFormat::Uncompressed,
            cbits: 0,
            pbits,
        }
    }

    /// A compressed rank with explicit coordinates.
    pub fn compressed(name: impl Into<String>, cbits: u32, pbits: u32) -> Self {
        RankSpec {
            name: name.into(),
            format: RankFormat::Compressed,
            cbits,
            pbits,
        }
    }
}

/// Per-entry storage statistics for one rank of a concrete tensor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankOccupancy {
    /// Entries in the coordinate array (0 when cbits = 0).
    pub coord_entries: usize,
    /// Entries in the payload array (0 when pbits = 0).
    pub payload_entries: usize,
}

/// A whole-tensor format: rank order plus one spec per rank.
///
/// # Examples
///
/// The CSR matrix format of paper Figure 6:
///
/// ```
/// use rteaal_tensor::format::{FormatSpec, RankSpec};
/// let csr = FormatSpec::new("A", [
///     RankSpec::uncompressed("M", 8),
///     RankSpec::compressed("K", 8, 8),
/// ]);
/// assert_eq!(csr.ranks[1].name, "K");
/// // 3 rows, 4 nonzeros: row-pointer-ish payloads + coord/payload pairs.
/// let bits = csr.size_bits(&[(3, 3).into(), (4, 4).into()]);
/// assert_eq!(bits, 3 * 8 + 4 * 8 + 4 * 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FormatSpec {
    /// Tensor name.
    pub tensor: String,
    /// Rank specs, outermost first (this *is* the rank order).
    pub ranks: Vec<RankSpec>,
}

impl From<(usize, usize)> for RankOccupancy {
    fn from((coord_entries, payload_entries): (usize, usize)) -> Self {
        RankOccupancy {
            coord_entries,
            payload_entries,
        }
    }
}

impl FormatSpec {
    /// Creates a format from rank specs in rank order.
    pub fn new(tensor: impl Into<String>, ranks: impl IntoIterator<Item = RankSpec>) -> Self {
        FormatSpec {
            tensor: tensor.into(),
            ranks: ranks.into_iter().collect(),
        }
    }

    /// Total storage in bits for the given per-rank entry counts.
    ///
    /// # Panics
    ///
    /// Panics if `occupancies` does not have one entry per rank.
    pub fn size_bits(&self, occupancies: &[RankOccupancy]) -> usize {
        assert_eq!(
            occupancies.len(),
            self.ranks.len(),
            "one occupancy per rank"
        );
        self.ranks
            .iter()
            .zip(occupancies)
            .map(|(spec, occ)| {
                occ.coord_entries * spec.cbits as usize + occ.payload_entries * spec.pbits as usize
            })
            .sum()
    }
}

impl fmt::Display for FormatSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.tensor)?;
        writeln!(
            f,
            "  rank-order: [{}]",
            self.ranks
                .iter()
                .map(|r| r.name.clone())
                .collect::<Vec<_>>()
                .join(", ")
        )?;
        for r in &self.ranks {
            writeln!(f, "  {}: format: {}", r.name, r.format)?;
            writeln!(
                f,
                "    cbits: {}",
                if r.cbits == 0 {
                    "0".into()
                } else {
                    r.cbits.to_string()
                }
            )?;
            writeln!(
                f,
                "    pbits: {}",
                if r.pbits == 0 {
                    "0".into()
                } else {
                    r.pbits.to_string()
                }
            )?;
        }
        Ok(())
    }
}

/// Bits needed to store values in `0..=max_value` (at least 1).
pub(crate) fn bits_for_max(max_value: u64) -> u32 {
    rteaal_firrtl::ty::bits_for(max_value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_example_of_figure_6() {
        // M uncompressed with cbits 0 (implicit coords), K compressed.
        let csr = FormatSpec::new(
            "A",
            [
                RankSpec::uncompressed("M", 16),
                RankSpec::compressed("K", 16, 16),
            ],
        );
        assert_eq!(csr.ranks[0].cbits, 0);
        assert_eq!(
            csr.ranks
                .iter()
                .map(|r| r.name.as_str())
                .collect::<Vec<_>>(),
            ["M", "K"]
        );
        // 3 rows each with a payload; 4 nnz with coord+payload each.
        let size = csr.size_bits(&[(0, 3).into(), (4, 4).into()]);
        assert_eq!(size, 3 * 16 + 4 * 32);
    }

    #[test]
    fn zero_bits_eliminates_arrays() {
        let spec = FormatSpec::new(
            "OIM",
            [
                RankSpec::compressed("S", 20, 0),
                RankSpec::compressed("R", 20, 0),
            ],
        );
        // Payload entries contribute nothing at pbits = 0.
        let size = spec.size_bits(&[(10, 10).into(), (30, 30).into()]);
        assert_eq!(size, (10 + 30) * 20);
    }

    #[test]
    fn display_matches_teaal_style() {
        let spec = FormatSpec::new(
            "OIM",
            [
                RankSpec::uncompressed("I", 12),
                RankSpec::compressed("S", 20, 0),
            ],
        );
        let text = spec.to_string();
        assert!(text.contains("rank-order: [I, S]"));
        assert!(text.contains("I: format: U"));
        assert!(text.contains("S: format: C"));
    }

    #[test]
    fn bits_for_max_values() {
        assert_eq!(bits_for_max(0), 1);
        assert_eq!(bits_for_max(255), 8);
        assert_eq!(bits_for_max(256), 9);
    }
}
