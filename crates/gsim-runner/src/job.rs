//! The unit of work and its execution report.

use std::time::Duration;

/// One named, re-invocable unit of sweep work.
///
/// The closure is `Fn` (not `FnOnce`) so the pool can invoke it a second
/// time under the retry-once failure policy; it must therefore produce its
/// result from its captures alone. Simulation pipelines fit naturally:
/// configs and workloads are immutable inputs.
pub struct Job<T> {
    name: String,
    work: Box<dyn Fn() -> T + Send + Sync>,
}

impl<T> Job<T> {
    /// Wraps `work` as a job called `name` (the name appears in events,
    /// progress lines, and metrics).
    pub fn new(name: impl Into<String>, work: impl Fn() -> T + Send + Sync + 'static) -> Self {
        Self {
            name: name.into(),
            work: Box::new(work),
        }
    }

    /// The job's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Invokes the work closure.
    pub fn run(&self) -> T {
        (self.work)()
    }
}

impl<T> std::fmt::Debug for Job<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("name", &self.name).finish()
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus<T> {
    /// The job returned a value.
    Done(T),
    /// The job panicked on its final attempt; the payload message is kept.
    Panicked(String),
}

impl<T> JobStatus<T> {
    /// Stable label for events and metrics ("ok", "panicked").
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Done(_) => "ok",
            JobStatus::Panicked(_) => "panicked",
        }
    }
}

/// The full record of one job's execution.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport<T> {
    /// Submission index: reports returned by the pool are sorted by it.
    pub index: usize,
    /// The job's name.
    pub name: String,
    /// Attempts made (1, or 2 after a retry).
    pub attempts: u32,
    /// Wall-clock duration of the final attempt.
    pub duration: Duration,
    /// Outcome of the final attempt.
    pub status: JobStatus<T>,
}

impl<T> JobReport<T> {
    /// The job's value, if it completed.
    pub fn ok(&self) -> Option<&T> {
        match &self.status {
            JobStatus::Done(v) => Some(v),
            _ => None,
        }
    }

    /// Consumes the report into the job's value, if it completed.
    pub fn into_ok(self) -> Option<T> {
        match self.status {
            JobStatus::Done(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the job failed (panicked) after all attempts.
    pub fn is_failed(&self) -> bool {
        !matches!(self.status, JobStatus::Done(_))
    }

    /// A human-readable failure description, if the job failed.
    pub fn failure(&self) -> Option<String> {
        match &self.status {
            JobStatus::Done(_) => None,
            JobStatus::Panicked(msg) => Some(format!("panicked: {msg}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_is_reinvocable_and_named() {
        let job = Job::new("double", || 21 * 2);
        assert_eq!(job.name(), "double");
        assert_eq!(job.run(), 42);
        assert_eq!(job.run(), 42);
    }

    #[test]
    fn report_accessors() {
        let ok = JobReport {
            index: 0,
            name: "a".into(),
            attempts: 1,
            duration: Duration::ZERO,
            status: JobStatus::Done(5u32),
        };
        assert_eq!(ok.ok(), Some(&5));
        assert!(!ok.is_failed());
        assert_eq!(ok.failure(), None);
        assert_eq!(ok.status.label(), "ok");

        let bad: JobReport<u32> = JobReport {
            index: 1,
            name: "b".into(),
            attempts: 2,
            duration: Duration::ZERO,
            status: JobStatus::Panicked("boom".into()),
        };
        assert!(bad.is_failed());
        assert_eq!(bad.failure().unwrap(), "panicked: boom");
        assert_eq!(bad.into_ok(), None);
    }
}
