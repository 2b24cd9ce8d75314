//! Serde DTOs for instances (feature `serde`, default-on).
//!
//! Instances serialize through explicit, human-editable DTOs rather than
//! their dense internal tables, so JSON files written by the CLI remain
//! readable and stable across internal representation changes.

use serde::impl_json_struct;

use crate::{
    BipartiteInstance, DeltaSide, KPartiteInstance, PrefDelta, PrefsError, RoommatesInstance,
};

/// Serializable form of a [`KPartiteInstance`]: nested best-to-worst lists,
/// `lists[g][i][h]` with an empty self block.
#[derive(Debug, Clone)]
pub struct KPartiteDto {
    /// Number of genders.
    pub k: usize,
    /// Members per gender.
    pub n: usize,
    /// `lists[g][i][h]` — member `(g, i)`'s ordering of gender `h`.
    pub lists: Vec<Vec<Vec<Vec<u32>>>>,
}

impl_json_struct!(KPartiteDto { k, n, lists });

impl From<&KPartiteInstance> for KPartiteDto {
    fn from(inst: &KPartiteInstance) -> Self {
        KPartiteDto {
            k: inst.k(),
            n: inst.n(),
            lists: inst.to_lists(),
        }
    }
}

impl TryFrom<KPartiteDto> for KPartiteInstance {
    type Error = PrefsError;

    fn try_from(dto: KPartiteDto) -> Result<Self, PrefsError> {
        let inst = KPartiteInstance::from_lists(&dto.lists)?;
        if inst.k() != dto.k {
            return Err(PrefsError::ShapeMismatch {
                what: "declared k",
                expected: dto.k,
                actual: inst.k(),
            });
        }
        declared_n(dto.n, inst.n())?;
        Ok(inst)
    }
}

/// A DTO's declared `n` must be the size its lists build.
fn declared_n(declared: usize, built: usize) -> Result<(), PrefsError> {
    if declared != built {
        return Err(PrefsError::ShapeMismatch {
            what: "declared n",
            expected: declared,
            actual: built,
        });
    }
    Ok(())
}

/// Serializable form of a [`BipartiteInstance`].
#[derive(Debug, Clone)]
pub struct BipartiteDto {
    /// Members per side.
    pub n: usize,
    /// Proposer lists, best first.
    pub proposers: Vec<Vec<u32>>,
    /// Responder lists, best first.
    pub responders: Vec<Vec<u32>>,
}

impl_json_struct!(BipartiteDto { n, proposers, responders });

impl From<&BipartiteInstance> for BipartiteDto {
    fn from(inst: &BipartiteInstance) -> Self {
        let n = inst.n();
        BipartiteDto {
            n,
            proposers: (0..n as u32)
                .map(|m| inst.proposer_list(m).to_vec())
                .collect(),
            responders: (0..n as u32)
                .map(|w| inst.responder_list(w).to_vec())
                .collect(),
        }
    }
}

impl TryFrom<BipartiteDto> for BipartiteInstance {
    type Error = PrefsError;

    fn try_from(dto: BipartiteDto) -> Result<Self, PrefsError> {
        let inst = BipartiteInstance::from_lists(&dto.proposers, &dto.responders)?;
        declared_n(dto.n, inst.n())?;
        Ok(inst)
    }
}

/// Serializable form of a [`RoommatesInstance`].
#[derive(Debug, Clone)]
pub struct RoommatesDto {
    /// Number of participants.
    pub n: usize,
    /// Acceptable partners per participant, best first.
    pub lists: Vec<Vec<u32>>,
}

impl_json_struct!(RoommatesDto { n, lists });

impl From<&RoommatesInstance> for RoommatesDto {
    fn from(inst: &RoommatesInstance) -> Self {
        RoommatesDto {
            n: inst.n(),
            lists: inst.to_lists(),
        }
    }
}

impl TryFrom<RoommatesDto> for RoommatesInstance {
    type Error = PrefsError;

    fn try_from(dto: RoommatesDto) -> Result<Self, PrefsError> {
        let inst = RoommatesInstance::from_lists(dto.lists)?;
        declared_n(dto.n, inst.n())?;
        Ok(inst)
    }
}

/// Serializable form of a [`PrefDelta`], flattened so the JSON shim's
/// all-fields-required object mapping applies: `op` selects the variant
/// (`"set_row"`, `"swap"`, `"splice"`), unused operand fields are zero /
/// empty by convention.
#[derive(Debug, Clone)]
pub struct PrefDeltaDto {
    /// `"set_row"`, `"swap"`, or `"splice"`.
    pub op: String,
    /// `"proposer"` or `"responder"`.
    pub side: String,
    /// Row (member) index the delta rewrites.
    pub row: u32,
    /// New full ordering (`set_row` only; empty otherwise).
    pub prefs: Vec<u32>,
    /// First swap position (`swap` only).
    pub a: u32,
    /// Second swap position (`swap` only).
    pub b: u32,
    /// Source position (`splice` only).
    pub from: u32,
    /// Destination position (`splice` only).
    pub to: u32,
}

impl_json_struct!(PrefDeltaDto { op, side, row, prefs, a, b, from, to });

impl From<&PrefDelta> for PrefDeltaDto {
    fn from(delta: &PrefDelta) -> Self {
        let side = match delta.side() {
            DeltaSide::Proposer => "proposer",
            DeltaSide::Responder => "responder",
        }
        .to_string();
        let mut dto = PrefDeltaDto {
            op: String::new(),
            side,
            row: delta.row(),
            prefs: Vec::new(),
            a: 0,
            b: 0,
            from: 0,
            to: 0,
        };
        match delta {
            PrefDelta::SetRow { prefs, .. } => {
                dto.op = "set_row".to_string();
                dto.prefs = prefs.clone();
            }
            PrefDelta::Swap { a, b, .. } => {
                dto.op = "swap".to_string();
                dto.a = *a;
                dto.b = *b;
            }
            PrefDelta::Splice { from, to, .. } => {
                dto.op = "splice".to_string();
                dto.from = *from;
                dto.to = *to;
            }
        }
        dto
    }
}

impl TryFrom<&PrefDeltaDto> for PrefDelta {
    type Error = String;

    fn try_from(dto: &PrefDeltaDto) -> Result<Self, String> {
        let side = match dto.side.as_str() {
            "proposer" => DeltaSide::Proposer,
            "responder" => DeltaSide::Responder,
            other => return Err(format!("unknown delta side `{other}`")),
        };
        let row = dto.row;
        match dto.op.as_str() {
            "set_row" => Ok(PrefDelta::SetRow {
                side,
                row,
                prefs: dto.prefs.clone(),
            }),
            "swap" => Ok(PrefDelta::Swap {
                side,
                row,
                a: dto.a,
                b: dto.b,
            }),
            "splice" => Ok(PrefDelta::Splice {
                side,
                row,
                from: dto.from,
                to: dto.to,
            }),
            other => Err(format!("unknown delta op `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::paper::{fig3_tripartite, section3b_left};

    #[test]
    fn kpartite_json_roundtrip() {
        let inst = fig3_tripartite();
        let dto = KPartiteDto::from(&inst);
        let json = serde_json::to_string(&dto).unwrap();
        let back: KPartiteDto = serde_json::from_str(&json).unwrap();
        let inst2 = KPartiteInstance::try_from(back).unwrap();
        assert_eq!(inst, inst2);
    }

    #[test]
    fn roommates_json_roundtrip() {
        let inst = section3b_left();
        let dto = RoommatesDto::from(&inst);
        let json = serde_json::to_string(&dto).unwrap();
        let back: RoommatesDto = serde_json::from_str(&json).unwrap();
        assert_eq!(RoommatesInstance::try_from(back).unwrap(), inst);
    }

    #[test]
    fn dto_shape_mismatch_detected() {
        let inst = fig3_tripartite();
        let mut dto = KPartiteDto::from(&inst);
        dto.k = 7;
        assert!(KPartiteInstance::try_from(dto).is_err());
    }

    #[test]
    fn declared_n_must_match_the_lists() {
        let bipartite: BipartiteDto =
            serde_json::from_str(r#"{"n":5,"proposers":[[0,1],[1,0]],"responders":[[0,1],[1,0]]}"#)
                .unwrap();
        assert_eq!(
            BipartiteInstance::try_from(bipartite).unwrap_err(),
            PrefsError::ShapeMismatch {
                what: "declared n",
                expected: 5,
                actual: 2
            }
        );
        let roommates: RoommatesDto = serde_json::from_str(r#"{"n":9,"lists":[[1],[0]]}"#).unwrap();
        assert_eq!(
            RoommatesInstance::try_from(roommates).unwrap_err(),
            PrefsError::ShapeMismatch {
                what: "declared n",
                expected: 9,
                actual: 2
            }
        );
        let roommates: RoommatesDto = serde_json::from_str(r#"{"n":2,"lists":[[1],[0]]}"#).unwrap();
        assert_eq!(RoommatesInstance::try_from(roommates).unwrap().n(), 2);
    }

    #[test]
    fn delta_json_roundtrip_all_ops() {
        let deltas = vec![
            PrefDelta::SetRow {
                side: DeltaSide::Proposer,
                row: 2,
                prefs: vec![3, 0, 1, 2],
            },
            PrefDelta::Swap {
                side: DeltaSide::Responder,
                row: 1,
                a: 0,
                b: 3,
            },
            PrefDelta::Splice {
                side: DeltaSide::Proposer,
                row: 0,
                from: 3,
                to: 1,
            },
        ];
        for delta in deltas {
            let dto = PrefDeltaDto::from(&delta);
            let json = serde_json::to_string(&dto).unwrap();
            let back: PrefDeltaDto = serde_json::from_str(&json).unwrap();
            assert_eq!(PrefDelta::try_from(&back).unwrap(), delta);
        }
    }

    #[test]
    fn bad_delta_dto_is_rejected() {
        let delta = PrefDelta::Swap {
            side: DeltaSide::Proposer,
            row: 0,
            a: 0,
            b: 1,
        };
        let mut dto = PrefDeltaDto::from(&delta);
        dto.op = "reverse".to_string();
        assert!(PrefDelta::try_from(&dto).is_err());
        let mut dto = PrefDeltaDto::from(&delta);
        dto.side = "middle".to_string();
        assert!(PrefDelta::try_from(&dto).is_err());
    }

    #[test]
    fn bipartite_json_roundtrip() {
        let inst = crate::gen::paper::example1_second();
        let dto = BipartiteDto::from(&inst);
        let json = serde_json::to_string(&dto).unwrap();
        let back: BipartiteDto = serde_json::from_str(&json).unwrap();
        assert_eq!(BipartiteInstance::try_from(back).unwrap(), inst);
    }
}
