//! The facade error: one enum over every layer's failure modes.
//!
//! Five PRs of growth left each layer with its own error type —
//! [`CostModelError`] from the cost model, [`BackendError`] from
//! execution, [`TraceError`] from workload generation,
//! [`TrafficError`] from load generation, record/replay and pacing,
//! [`SessionError`] from the batch facade, [`EngineError`] from the
//! streaming engine and [`ServerError`] from the multi-tenant server.
//! Those stay public (library code matching a *specific* layer should
//! keep doing so), but application code threading several layers
//! through one `?` now has a single home: [`enum@Error`] wraps them
//! all, with [`From`] impls in both directions of the layering and
//! [`std::error::Error::source`] chaining down to the root cause.
//!
//! ```
//! use hhpim::{Error, Result};
//! use hhpim::session::SessionBuilder;
//! use hhpim_workload::Scenario;
//!
//! fn serve() -> Result<usize> {
//!     // SessionError and EngineError both convert into Error, so one
//!     // signature covers builder and streaming failures alike.
//!     let mut session = SessionBuilder::new().scenario(Scenario::Random).build()?;
//!     let artifacts = session.run()?;
//!     Ok(artifacts.primary().records.len())
//! }
//! assert_eq!(serve().unwrap(), 50);
//! ```
//!
//! Load-generation failures take the same `?`:
//!
//! ```
//! use hhpim::{Error, Pacer, RecordedTrace, Result, TrafficError};
//!
//! /// A pacer at `rate` slices per second and a recorded trace's
//! /// arrival count.
//! fn paced_replay(rate: f64, json: &str) -> Result<(Pacer, usize)> {
//!     let pacer = Pacer::from_rate(rate)?;
//!     let trace = RecordedTrace::from_json(json)?;
//!     Ok((pacer, trace.arrivals().len()))
//! }
//! let json = r#"{"version": 1, "label": "two", "arrivals": [[0.0, 0.5], [1.0, 0.25]]}"#;
//! assert_eq!(paced_replay(200.0, json).unwrap().1, 2);
//! assert!(matches!(
//!     paced_replay(0.0, json),
//!     Err(Error::Traffic(TrafficError::InvalidPace { .. }))
//! ));
//! assert!(matches!(
//!     paced_replay(200.0, "{}"),
//!     Err(Error::Traffic(TrafficError::Parse { .. }))
//! ));
//! ```

use crate::artifact::ArtifactError;
use crate::backend::BackendError;
use crate::cost::CostModelError;
use crate::engine::EngineError;
use crate::server::ServerError;
use crate::session::SessionError;
use hhpim_workload::{TraceError, TrafficError};
use std::fmt;

/// `Result` with the facade [`enum@Error`] — the signature for
/// application code crossing layer boundaries.
pub type Result<T> = std::result::Result<T, Error>;

/// Any failure the `hhpim` stack can produce, by originating layer.
/// See the [module docs](self) for when to match this versus the
/// per-layer enums it wraps.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The model does not fit the architecture, or a placement was
    /// rejected ([`CostModelError`]).
    Cost(CostModelError),
    /// An execution backend failed to build or run ([`BackendError`]).
    Backend(BackendError),
    /// A workload trace could not be generated or replayed
    /// ([`TraceError`]).
    Trace(TraceError),
    /// Load generation, a recorded arrival trace or a pacer was
    /// rejected ([`TrafficError`]).
    Traffic(TrafficError),
    /// The batch facade failed to build or drive a session
    /// ([`SessionError`]).
    Session(SessionError),
    /// The streaming engine rejected a load or poisoned its stream
    /// ([`EngineError`]).
    Engine(EngineError),
    /// The multi-tenant server failed to build or serve
    /// ([`ServerError`]).
    Server(ServerError),
    /// A persistent placement artifact failed to save, load or merge
    /// ([`ArtifactError`]).
    Artifact(ArtifactError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Cost(e) => write!(f, "cost model: {e}"),
            Error::Backend(e) => write!(f, "backend: {e}"),
            Error::Trace(e) => write!(f, "trace: {e}"),
            Error::Traffic(e) => write!(f, "traffic: {e}"),
            Error::Session(e) => write!(f, "session: {e}"),
            Error::Engine(e) => write!(f, "engine: {e}"),
            Error::Server(e) => write!(f, "server: {e}"),
            Error::Artifact(e) => write!(f, "artifact: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Cost(e) => Some(e),
            Error::Backend(e) => Some(e),
            Error::Trace(e) => Some(e),
            Error::Traffic(e) => Some(e),
            Error::Session(e) => Some(e),
            Error::Engine(e) => Some(e),
            Error::Server(e) => Some(e),
            Error::Artifact(e) => Some(e),
        }
    }
}

impl From<CostModelError> for Error {
    fn from(e: CostModelError) -> Self {
        Error::Cost(e)
    }
}

impl From<BackendError> for Error {
    fn from(e: BackendError) -> Self {
        Error::Backend(e)
    }
}

impl From<TraceError> for Error {
    fn from(e: TraceError) -> Self {
        Error::Trace(e)
    }
}

impl From<TrafficError> for Error {
    fn from(e: TrafficError) -> Self {
        Error::Traffic(e)
    }
}

impl From<SessionError> for Error {
    fn from(e: SessionError) -> Self {
        Error::Session(e)
    }
}

impl From<EngineError> for Error {
    fn from(e: EngineError) -> Self {
        Error::Engine(e)
    }
}

impl From<ServerError> for Error {
    fn from(e: ServerError) -> Self {
        Error::Server(e)
    }
}

impl From<ArtifactError> for Error {
    fn from(e: ArtifactError) -> Self {
        Error::Artifact(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use std::error::Error as StdError;

    #[test]
    fn every_layer_converts_and_chains_to_its_source() {
        let cases: Vec<Error> = vec![
            CostModelError::ZeroGroupSize.into(),
            BackendError::Cost(CostModelError::ZeroGroupSize).into(),
            TraceError::Empty.into(),
            TrafficError::InvalidPace { interval_secs: 0.0 }.into(),
            SessionError::NoTraceSource.into(),
            EngineError::InvalidLoad {
                slice: 0,
                load: 2.0,
            }
            .into(),
            ServerError::NoTenants.into(),
            ArtifactError::Version {
                found: 2,
                supported: 1,
            }
            .into(),
        ];
        for error in &cases {
            assert!(
                error.source().is_some(),
                "{error}: facade errors chain to the layer error"
            );
            assert!(!error.to_string().is_empty());
        }
    }

    #[test]
    fn question_mark_crosses_layers_in_one_signature() {
        fn build_and_stream() -> Result<usize> {
            let backend = crate::session::SessionBuilder::new().build_analytic()?;
            let mut engine = crate::engine::Engine::new(backend);
            engine.submit(0.5)?;
            engine.step()?;
            let reports = engine.drain()?;
            Ok(reports[0].records.len())
        }
        assert_eq!(build_and_stream().unwrap(), 1);
    }

    #[test]
    fn nested_sources_reach_the_root_cause() {
        let root = CostModelError::ZeroGroupSize;
        let error: Error = SessionError::Cost(root).into();
        let layer = error.source().expect("session layer");
        assert!(
            layer.source().is_some(),
            "the chain continues below the session error"
        );
    }

    #[test]
    fn engine_backend_errors_identify_the_backend() {
        let error: Error = EngineError::Backend {
            backend: BackendKind::Analytic,
            error: BackendError::Cost(CostModelError::ZeroGroupSize),
        }
        .into();
        assert!(error.to_string().contains("analytic"));
    }
}
