//! The campaign spec: what a campaign directory verifies and how.
//!
//! Stored as `spec.txt` at the root of the campaign directory in a
//! line-oriented `key value` format (human-diffable, no parser
//! dependencies). The spec is written once at submit time and read by
//! every daemon restart and worker process — it is the single source of
//! truth that makes a resumed campaign regenerate the *same* chip,
//! enumerate the *same* property list in the *same* order, and run
//! every engine under the *same* options, which is what the
//! byte-identical-Table-2 recovery guarantee rests on.

use std::fmt;

use veridic_chipgen::{ChipConfig, Scale};
use veridic_mc::CheckOptions;

/// Everything a campaign run is parameterized by.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Chip scale (`full` reproduces the paper census, `small` the test
    /// chip).
    pub scale: Scale,
    /// Seed the Table 3 bugs.
    pub with_bugs: bool,
    /// Worker **processes** to shard properties across (≥ 1).
    pub shards: usize,
    /// Budget rounds per scheduler slice; checkpoints are persisted at
    /// slice boundaries.
    pub slice_rounds: u64,
    /// Engine budgets and selection.
    pub check: CheckOptions,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            scale: Scale::Small,
            with_bugs: false,
            shards: 2,
            slice_rounds: 16,
            check: CheckOptions::default(),
        }
    }
}

/// A malformed `spec.txt`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The first line is not the expected header.
    BadHeader,
    /// A line is not `key value`.
    BadLine(String),
    /// A value failed to parse for its key.
    BadValue {
        /// The key.
        key: String,
        /// The unparseable value.
        value: String,
    },
    /// An unknown key (specs are closed-world: an unknown key means a
    /// newer writer, and silently ignoring it could change semantics).
    UnknownKey(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadHeader => write!(f, "not a campaign spec (bad header)"),
            SpecError::BadLine(line) => write!(f, "malformed spec line: {line:?}"),
            SpecError::BadValue { key, value } => {
                write!(f, "bad value {value:?} for spec key {key:?}")
            }
            SpecError::UnknownKey(key) => write!(f, "unknown spec key {key:?}"),
        }
    }
}

impl std::error::Error for SpecError {}

const HEADER: &str = "veridic-campaign-spec v1";

impl CampaignSpec {
    /// The chip generation config this spec describes.
    pub fn chip_config(&self) -> ChipConfig {
        ChipConfig {
            scale: self.scale,
            with_bugs: self.with_bugs,
        }
    }

    /// Renders the spec as `spec.txt` text (stable key order).
    pub fn to_text(&self) -> String {
        let c = &self.check;
        format!(
            "{HEADER}\n\
             scale {}\n\
             with_bugs {}\n\
             shards {}\n\
             slice_rounds {}\n\
             bmc_depth {}\n\
             sat_conflicts {}\n\
             induction_depth {}\n\
             simple_path {}\n\
             bdd_nodes {}\n\
             max_iterations {}\n\
             pobdd_window_vars {}\n\
             static_order {}\n\
             bdd_only {}\n\
             sat_only {}\n\
             preanalysis {}\n",
            match self.scale {
                Scale::Full => "full",
                Scale::Small => "small",
            },
            self.with_bugs,
            self.shards,
            self.slice_rounds,
            c.bmc_depth,
            c.sat_conflicts,
            c.induction_depth,
            c.simple_path,
            c.bdd_nodes,
            c.max_iterations,
            c.pobdd_window_vars,
            c.static_order,
            c.bdd_only,
            c.sat_only,
            c.preanalysis,
        )
    }

    /// Parses `spec.txt` text.
    pub fn parse(text: &str) -> Result<CampaignSpec, SpecError> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(HEADER) {
            return Err(SpecError::BadHeader);
        }
        let mut spec = CampaignSpec::default();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once(' ') else {
                return Err(SpecError::BadLine(line.to_string()));
            };
            let bad = || SpecError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
            };
            let parse_bool = || match value {
                "true" => Ok(true),
                "false" => Ok(false),
                _ => Err(bad()),
            };
            match key {
                "scale" => {
                    spec.scale = match value {
                        "full" => Scale::Full,
                        "small" => Scale::Small,
                        _ => return Err(bad()),
                    }
                }
                "with_bugs" => spec.with_bugs = parse_bool()?,
                "shards" => spec.shards = value.parse().map_err(|_| bad())?,
                "slice_rounds" => spec.slice_rounds = value.parse().map_err(|_| bad())?,
                // Specs written while the adaptive scheduler existed
                // carry `adaptive false`; `true` asked for a scheduler
                // this build does not have.
                "adaptive" => {
                    if value != "false" {
                        return Err(bad());
                    }
                }
                "bmc_depth" => spec.check.bmc_depth = value.parse().map_err(|_| bad())?,
                "sat_conflicts" => spec.check.sat_conflicts = value.parse().map_err(|_| bad())?,
                "induction_depth" => {
                    spec.check.induction_depth = value.parse().map_err(|_| bad())?;
                }
                "simple_path" => spec.check.simple_path = parse_bool()?,
                "bdd_nodes" => spec.check.bdd_nodes = value.parse().map_err(|_| bad())?,
                "max_iterations" => {
                    spec.check.max_iterations = value.parse().map_err(|_| bad())?;
                }
                "pobdd_window_vars" => {
                    spec.check.pobdd_window_vars = value.parse().map_err(|_| bad())?;
                }
                "static_order" => spec.check.static_order = parse_bool()?,
                "bdd_only" => spec.check.bdd_only = parse_bool()?,
                "sat_only" => spec.check.sat_only = parse_bool()?,
                "preanalysis" => spec.check.preanalysis = parse_bool()?,
                _ => return Err(SpecError::UnknownKey(key.to_string())),
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_text() {
        let spec = CampaignSpec {
            scale: Scale::Small,
            with_bugs: true,
            shards: 3,
            slice_rounds: 7,
            check: CheckOptions::tiny_budget(),
        };
        let text = spec.to_text();
        assert_eq!(CampaignSpec::parse(&text), Ok(spec));
    }

    /// `spec.txt` as the default spec was written while the adaptive
    /// scheduler existed: campaign directories submitted then must keep
    /// loading with the same meaning.
    const DEFAULT_SPEC_WITH_ADAPTIVE_KEY: &str = "veridic-campaign-spec v1\n\
        scale small\nwith_bugs false\nshards 2\nslice_rounds 16\nadaptive false\n\
        bmc_depth 30\nsat_conflicts 200000\ninduction_depth 6\nsimple_path true\n\
        bdd_nodes 2097152\nmax_iterations 10000\npobdd_window_vars 2\nstatic_order false\n\
        bdd_only false\nsat_only false\npreanalysis true\n";

    #[test]
    fn specs_with_the_adaptive_key_still_load() {
        assert_eq!(
            CampaignSpec::parse(DEFAULT_SPEC_WITH_ADAPTIVE_KEY),
            Ok(CampaignSpec::default())
        );
        assert!(!CampaignSpec::default().to_text().contains("adaptive"));
        for value in ["true", "maybe"] {
            assert_eq!(
                CampaignSpec::parse(&format!("{HEADER}\nadaptive {value}")),
                Err(SpecError::BadValue {
                    key: "adaptive".into(),
                    value: value.into()
                })
            );
        }
    }

    #[test]
    fn default_round_trips_and_errors_are_typed() {
        let spec = CampaignSpec::default();
        assert_eq!(CampaignSpec::parse(&spec.to_text()), Ok(spec));
        assert_eq!(CampaignSpec::parse("nonsense"), Err(SpecError::BadHeader));
        assert_eq!(
            CampaignSpec::parse(&format!("{HEADER}\nshards many")),
            Err(SpecError::BadValue {
                key: "shards".into(),
                value: "many".into()
            })
        );
        assert_eq!(
            CampaignSpec::parse(&format!("{HEADER}\nwarp_factor 9")),
            Err(SpecError::UnknownKey("warp_factor".into()))
        );
    }
}
