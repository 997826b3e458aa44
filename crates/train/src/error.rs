//! Typed errors for the threaded trainer.

/// Why a training run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The configuration is unusable (empty stages, indivisible batch…).
    InvalidConfig(String),
    /// A stage thread panicked.
    StagePanicked {
        /// Stage index whose thread panicked.
        stage: usize,
    },
    /// A stage made no progress before its channel timeout — a hang or a
    /// dead neighbour the disconnect cascade did not reach.
    StageStalled {
        /// Stage index that timed out.
        stage: usize,
    },
    /// The supervisor (driver thread) timed out feeding inputs or
    /// collecting losses.
    SupervisorTimeout {
        /// Global iteration being processed when the timeout hit.
        at_iter: usize,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::InvalidConfig(why) => write!(f, "invalid training config: {why}"),
            TrainError::StagePanicked { stage } => write!(f, "stage {stage} thread panicked"),
            TrainError::StageStalled { stage } => {
                write!(f, "stage {stage} stalled past its channel timeout")
            }
            TrainError::SupervisorTimeout { at_iter } => {
                write!(f, "supervisor timed out at iteration {at_iter}")
            }
        }
    }
}

impl std::error::Error for TrainError {}
