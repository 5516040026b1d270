//! The Mediator wire model (Appendix A).
//!
//! Request/response/error types mirroring the JSON-based RESTful
//! interface of Tables A.1–A.5 (plain structs; the offline build has no
//! serde, so wire encoding is out of scope).

/// Error reasons of Table A.5.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorReason {
    /// 400 — badly formatted request.
    BadRequest,
    /// 401 — invalid SSH credentials (here: unknown device).
    SshAuthenticationError,
    /// 405 — an instruction produced an error.
    InstructionExecutionError,
    /// 406 — general SSH error.
    SshError,
    /// 408 — execution took too long.
    InstructionTimeoutError,
    /// 500 — internal server error.
    InternalError,
}

impl ErrorReason {
    /// The numeric code of Table A.5.
    pub fn code(self) -> u16 {
        match self {
            ErrorReason::BadRequest => 400,
            ErrorReason::SshAuthenticationError => 401,
            ErrorReason::InstructionExecutionError => 405,
            ErrorReason::SshError => 406,
            ErrorReason::InstructionTimeoutError => 408,
            ErrorReason::InternalError => 500,
        }
    }
}

/// An API error (Table A.2, `Error` properties).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ApiError {
    /// Numeric code.
    pub code: u16,
    /// Error name.
    pub reason: ErrorReason,
    /// Human-readable description.
    pub message: String,
}

impl ApiError {
    /// Builds an error from a reason and message.
    pub fn new(reason: ErrorReason, message: impl Into<String>) -> Self {
        ApiError {
            code: reason.code(),
            reason,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}): {}",
            self.code,
            stringify_reason(self.reason),
            self.message
        )
    }
}

impl std::error::Error for ApiError {}

fn stringify_reason(r: ErrorReason) -> &'static str {
    match r {
        ErrorReason::BadRequest => "BadRequest",
        ErrorReason::SshAuthenticationError => "SSHAuthenticationError",
        ErrorReason::InstructionExecutionError => "InstructionExecutionError",
        ErrorReason::SshError => "SSHError",
        ErrorReason::InstructionTimeoutError => "InstructionTimeoutError",
        ErrorReason::InternalError => "InternalError",
    }
}

/// Job lifecycle states (Table A.4).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JobState {
    /// Accepted, not yet started.
    Submitted,
    /// Running or queued.
    Pending,
    /// Completed; results available.
    Finished,
    /// Unknown or expired job id.
    NotFound,
}

/// Result of one experiment: either the per-repetition outputs or an error
/// (Table A.2, `ExperimentResults`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExperimentResults {
    /// The device the experiment ran on.
    pub device_hostname: String,
    /// Core the scheduler placed it on.
    pub core: usize,
    /// How many attempts the experiment took (1 = first try; more when
    /// transient failures were retried; 0 only if the worker died before
    /// reporting).
    pub attempts: usize,
    /// Output per repetition, or the error.
    pub outcome: Result<Vec<String>, ApiError>,
}

/// Results of a whole job.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobResults {
    /// One entry per experiment, in request order.
    pub data: Vec<ExperimentResults>,
}

impl JobResults {
    /// Experiments that ended in an error (after any retries).
    pub fn failures(&self) -> usize {
        self.data.iter().filter(|r| r.outcome.is_err()).count()
    }
}

/// Response to a job-status poll (Table A.4).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobStatus {
    /// The job identifier.
    pub job_id: String,
    /// Current state.
    pub state: JobState,
    /// Present iff `state == Finished`.
    pub data: Option<JobResults>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table A.5, verbatim.
    #[test]
    fn error_codes_match_table_a5() {
        assert_eq!(ErrorReason::BadRequest.code(), 400);
        assert_eq!(ErrorReason::SshAuthenticationError.code(), 401);
        assert_eq!(ErrorReason::InstructionExecutionError.code(), 405);
        assert_eq!(ErrorReason::SshError.code(), 406);
        assert_eq!(ErrorReason::InstructionTimeoutError.code(), 408);
        assert_eq!(ErrorReason::InternalError.code(), 500);
    }

    #[test]
    fn display_is_informative() {
        let e = ApiError::new(ErrorReason::SshError, "connection reset");
        assert_eq!(e.to_string(), "406 (SSHError): connection reset");
    }

    #[test]
    fn api_types_clone_and_compare_structurally() {
        let status = JobStatus {
            job_id: "ab12".into(),
            state: JobState::Finished,
            data: Some(JobResults {
                data: vec![ExperimentResults {
                    device_hostname: "beaglebone".into(),
                    core: 0,
                    attempts: 1,
                    outcome: Ok(vec!["cycles: 1234".into()]),
                }],
            }),
        };
        let cloned = status.clone();
        assert_eq!(cloned, status);
        let err = ApiError::new(ErrorReason::BadRequest, "missing experiments");
        let e2: ApiError = ApiError {
            code: 400,
            ..err.clone()
        };
        assert_eq!(err, e2);
    }
}
