//! Run and tenant identity: the typed contract behind every "are these
//! counts from the same experiment?" check.
//!
//! Two pieces live here:
//!
//! * [`TenantId`] — a validated stream name. One collector process can
//!   host many independent `(mechanism, m, ε, seed)` streams; the tenant
//!   id is how a `Hello` handshake, a CLI flag, or a checkpoint path
//!   names one of them. The charset is deliberately narrow (alphanumeric
//!   plus `-` `_` `.`) so an id can be embedded verbatim in file names,
//!   `--tenants` specs, and wire frames without quoting.
//! * [`RunIdentity`] — the run-identity stamp itself. Historically this
//!   was a formatted string built independently in three places
//!   (`idldp-server`'s HelloAck/checkpoint stamp, `idldp-coord`'s
//!   expected-fleet line, and the ingest CLI's checkpoint header), which
//!   meant the identity check could drift between tiers. Now there is
//!   exactly one builder and one parser: [`RunIdentity::for_mechanism`]
//!   captures a mechanism's wire-visible configuration (kind, shape,
//!   width, exact ε bits) plus an optional free-form config stamp, and
//!   `Display`/`FromStr` round-trip the canonical line
//!
//!   ```text
//!   run <producer> kind=<kind> shape=<label> report_len=<n> ldp_eps=<16-hex> [stamp]
//!   ```
//!
//!   byte-compatible with every line the pre-typed code ever wrote, so
//!   existing checkpoints keep restoring.
//!
//! Equality on [`RunIdentity`] is the fleet-identity contract: a
//! coordinator refuses a collector whose parsed identity differs from its
//! own, and a checkpoint store refuses to restore counts stamped with a
//! different identity — merged counts from different configs would be
//! silently meaningless.

use crate::mechanism::Mechanism;
use std::fmt;
use std::str::FromStr;

/// Error for invalid tenant ids or unparseable run-identity lines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdentityError(String);

impl fmt::Display for IdentityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for IdentityError {}

/// The maximum tenant-id length (bytes). Generous for stream names,
/// small enough that an id embeds in file names and log lines.
pub const MAX_TENANT_ID_LEN: usize = 64;

/// A validated tenant (stream) name: 1–64 chars of `[A-Za-z0-9._-]`.
///
/// The default tenant is [`TenantId::DEFAULT_NAME`] — the stream a
/// client that names no tenant lands on, and the one a server hosting a
/// single stream serves.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(String);

impl TenantId {
    /// The name of the default tenant — where clients whose `Hello` names
    /// no tenant land.
    pub const DEFAULT_NAME: &'static str = "default";

    /// Validates and wraps a tenant name.
    ///
    /// # Errors
    /// [`IdentityError`] when the name is empty, longer than
    /// [`MAX_TENANT_ID_LEN`], or contains a character outside
    /// `[A-Za-z0-9._-]` (the id must embed in file names, CLI
    /// `--tenants` specs, and wire frames unquoted).
    pub fn new(name: impl Into<String>) -> Result<Self, IdentityError> {
        let name = name.into();
        if name.is_empty() {
            return Err(IdentityError("tenant id must not be empty".into()));
        }
        if name.len() > MAX_TENANT_ID_LEN {
            return Err(IdentityError(format!(
                "tenant id `{}…` is {} bytes long (max {MAX_TENANT_ID_LEN})",
                &name[..name.char_indices().nth(16).map_or(name.len(), |(i, _)| i)],
                name.len()
            )));
        }
        if let Some(bad) = name
            .chars()
            .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
        {
            return Err(IdentityError(format!(
                "tenant id `{name}` contains `{bad}` — allowed: A-Z a-z 0-9 . _ -"
            )));
        }
        Ok(TenantId(name))
    }

    /// The default tenant's id.
    #[must_use]
    pub fn default_tenant() -> Self {
        TenantId(Self::DEFAULT_NAME.to_string())
    }

    /// Whether this is the default tenant.
    #[must_use]
    pub fn is_default(&self) -> bool {
        self.0 == Self::DEFAULT_NAME
    }

    /// The tenant name as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    fn default() -> Self {
        Self::default_tenant()
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl FromStr for TenantId {
    type Err = IdentityError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TenantId::new(s)
    }
}

impl AsRef<str> for TenantId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A parsed run-identity stamp: who produced a stream of counts, under
/// which mechanism configuration, with which CLI config stamp.
///
/// Build one with [`RunIdentity::for_mechanism`]; serialize with
/// `Display` and parse with `FromStr` (a lossless round trip, covered by
/// a unit test). Two identities are the same experiment iff they are
/// `==`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunIdentity {
    /// The producing tier (`"idldp-serve"`, `"idldp-ingest"`, …).
    producer: String,
    /// The mechanism's stable kind name ([`Mechanism::kind`]).
    kind: String,
    /// The wire-shape label ([`crate::report::ReportShape::label`]).
    shape: String,
    /// The report width ([`Mechanism::report_len`]).
    report_len: u64,
    /// The plain-LDP budget as raw IEEE-754 bits — exact, so two runs
    /// whose ε differs in the last ulp still compare unequal.
    ldp_eps_bits: u64,
    /// The free-form config stamp (the CLI's `mechanism=… m=… eps=…
    /// seed=…`), when one was set.
    stamp: Option<String>,
}

impl RunIdentity {
    /// The producer tag of the networked collector tier.
    pub const PRODUCER_SERVE: &'static str = "idldp-serve";
    /// The producer tag of the local ingest CLI.
    pub const PRODUCER_INGEST: &'static str = "idldp-ingest";

    /// Captures a mechanism's wire-visible identity plus an optional
    /// free-form config stamp.
    pub fn for_mechanism(
        producer: &str,
        mechanism: &dyn Mechanism,
        config_stamp: Option<&str>,
    ) -> Self {
        RunIdentity {
            producer: producer.to_string(),
            kind: mechanism.kind().to_string(),
            shape: mechanism.report_shape().label(),
            report_len: mechanism.report_len() as u64,
            ldp_eps_bits: mechanism.ldp_epsilon().to_bits(),
            stamp: config_stamp.map(str::to_string),
        }
    }

    /// The producing tier tag.
    #[must_use]
    pub fn producer(&self) -> &str {
        &self.producer
    }

    /// The mechanism kind this run accumulates.
    #[must_use]
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The free-form config stamp, when one was set.
    #[must_use]
    pub fn stamp(&self) -> Option<&str> {
        self.stamp.as_deref()
    }
}

impl fmt::Display for RunIdentity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run {} kind={} shape={} report_len={} ldp_eps={:016x}",
            self.producer, self.kind, self.shape, self.report_len, self.ldp_eps_bits
        )?;
        if let Some(stamp) = &self.stamp {
            write!(f, " {stamp}")?;
        }
        Ok(())
    }
}

impl FromStr for RunIdentity {
    type Err = IdentityError;

    /// Parses the canonical line. The shape label may contain spaces
    /// (`hashed (seed, value in 0..17)`), so fields are located by their
    /// ` key=` markers rather than split on whitespace.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |detail: &str| IdentityError(format!("run-identity line {detail}: `{s}`"));
        let rest = s
            .strip_prefix("run ")
            .ok_or_else(|| err("must start with `run `"))?;
        let (producer, rest) = rest
            .split_once(" kind=")
            .ok_or_else(|| err("is missing ` kind=`"))?;
        let (kind, rest) = rest
            .split_once(" shape=")
            .ok_or_else(|| err("is missing ` shape=`"))?;
        let (shape, rest) = rest
            .split_once(" report_len=")
            .ok_or_else(|| err("is missing ` report_len=`"))?;
        let (report_len, rest) = rest
            .split_once(" ldp_eps=")
            .ok_or_else(|| err("is missing ` ldp_eps=`"))?;
        let report_len: u64 = report_len
            .parse()
            .map_err(|_| err("has a non-numeric report_len"))?;
        let (eps_hex, stamp) = match rest.split_once(' ') {
            Some((eps_hex, stamp)) => (eps_hex, Some(stamp.to_string())),
            None => (rest, None),
        };
        if eps_hex.len() != 16 {
            return Err(err("needs a 16-hex-digit ldp_eps"));
        }
        let ldp_eps_bits =
            u64::from_str_radix(eps_hex, 16).map_err(|_| err("has a non-hex ldp_eps"))?;
        if producer.is_empty() || producer.contains(' ') {
            return Err(err("has a malformed producer"));
        }
        Ok(RunIdentity {
            producer: producer.to_string(),
            kind: kind.to_string(),
            shape: shape.to_string(),
            report_len,
            ldp_eps_bits,
            stamp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Epsilon;
    use crate::olh::OptimalLocalHashing;
    use crate::subset::SubsetSelection;
    use crate::ue::UnaryEncoding;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn tenant_ids_validate_their_charset() {
        assert!(TenantId::new("alpha").is_ok());
        assert!(TenantId::new("a-1_b.2").is_ok());
        assert_eq!(TenantId::new("alpha").unwrap().to_string(), "alpha");
        assert!(TenantId::new("").is_err());
        assert!(TenantId::new("has space").is_err());
        assert!(TenantId::new("a=b").is_err());
        assert!(TenantId::new("a,b").is_err());
        assert!(TenantId::new("a:b").is_err());
        assert!(TenantId::new("x".repeat(MAX_TENANT_ID_LEN)).is_ok());
        assert!(TenantId::new("x".repeat(MAX_TENANT_ID_LEN + 1)).is_err());
        assert!(TenantId::default_tenant().is_default());
        assert!(!TenantId::new("alpha").unwrap().is_default());
        assert_eq!("beta".parse::<TenantId>().unwrap().as_str(), "beta");
    }

    /// Display → FromStr is lossless for every shape family, with and
    /// without a config stamp — including the space-bearing hashed and
    /// item-set shape labels.
    #[test]
    fn run_identity_display_from_str_round_trips() {
        let mechanisms: Vec<Box<dyn Mechanism>> = vec![
            Box::new(UnaryEncoding::optimized(eps(1.0), 16).unwrap()),
            Box::new(OptimalLocalHashing::new(eps(1.2), 24).unwrap()),
            Box::new(SubsetSelection::new(eps(1.0), 20).unwrap()),
        ];
        for mechanism in &mechanisms {
            for stamp in [None, Some("mechanism=oue m=16 eps=1.0 seed=7")] {
                for producer in [RunIdentity::PRODUCER_SERVE, RunIdentity::PRODUCER_INGEST] {
                    let identity = RunIdentity::for_mechanism(producer, mechanism.as_ref(), stamp);
                    let line = identity.to_string();
                    let parsed: RunIdentity = line.parse().unwrap();
                    assert_eq!(parsed, identity, "round trip of `{line}`");
                    assert_eq!(parsed.to_string(), line);
                }
            }
        }
    }

    /// The canonical line matches what the pre-typed string builders
    /// wrote, byte for byte — existing checkpoints must keep restoring.
    #[test]
    fn run_identity_line_is_byte_compatible_with_the_legacy_format() {
        let mechanism = UnaryEncoding::optimized(eps(1.0), 16).unwrap();
        let identity = RunIdentity::for_mechanism(
            RunIdentity::PRODUCER_SERVE,
            &mechanism,
            Some("mechanism=oue m=16 eps=1.0 seed=7"),
        );
        let legacy = format!(
            "run idldp-serve kind={} shape={} report_len={} ldp_eps={:016x} {}",
            mechanism.kind(),
            mechanism.report_shape().label(),
            mechanism.report_len(),
            mechanism.ldp_epsilon().to_bits(),
            "mechanism=oue m=16 eps=1.0 seed=7"
        );
        assert_eq!(identity.to_string(), legacy);
    }

    #[test]
    fn run_identity_rejects_malformed_lines() {
        for bad in [
            "",
            "idldp-snapshot v1",
            "run idldp-serve",
            "run idldp-serve kind=oue shape=bits report_len=16",
            "run idldp-serve kind=oue shape=bits report_len=x ldp_eps=3ff0000000000000",
            "run idldp-serve kind=oue shape=bits report_len=16 ldp_eps=zzz",
            "run idldp-serve kind=oue shape=bits report_len=16 ldp_eps=3ff0",
        ] {
            assert!(bad.parse::<RunIdentity>().is_err(), "accepted `{bad}`");
        }
        // Identities differing only in ε bits or stamp are different runs.
        let a = RunIdentity::for_mechanism(
            "idldp-serve",
            &UnaryEncoding::optimized(eps(1.0), 16).unwrap(),
            None,
        );
        let b = RunIdentity::for_mechanism(
            "idldp-serve",
            &UnaryEncoding::optimized(eps(2.5), 16).unwrap(),
            None,
        );
        assert_ne!(a, b);
        let stamped = RunIdentity::for_mechanism(
            "idldp-serve",
            &UnaryEncoding::optimized(eps(1.0), 16).unwrap(),
            Some("seed=2"),
        );
        assert_ne!(a, stamped);
    }
}
