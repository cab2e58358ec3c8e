//! The mechanism registry: one table from protocol names to builders.
//!
//! Everything above `idldp-core` that needs to *construct* a mechanism —
//! experiment runners, the CLI, the bench binaries — resolves a name
//! (`"rappor"`, `"oue"`, `"grr"`, `"idue-opt1"`, …) against
//! [`MechanismRegistry::standard`] and receives a `Box<dyn BatchMechanism>`.
//! Adding a protocol to the whole workspace is therefore one `impl` in
//! `idldp-core` plus one [`RegistryEntry`] here; no caller grows a `match`
//! arm.
//!
//! Baselines that satisfy plain ε-LDP (RAPPOR, OUE, GRR) are built at the
//! partition's *minimum* budget — the paper's comparison rule — while the
//! IDUE entries run at the full per-level budgets under MinID-LDP via the
//! `idldp-opt` solvers.

use crate::spec::BuildError;

use idldp_core::error::Result as CoreResult;
use idldp_core::grr::GeneralizedRandomizedResponse;
use idldp_core::idue::Idue;
use idldp_core::idue_ps::IduePs;
use idldp_core::levels::LevelPartition;
use idldp_core::mechanism::BatchMechanism;
use idldp_core::ps::PsMechanism;
use idldp_opt::{IdueSolver, Model};
use std::sync::OnceLock;

/// Everything a builder may need.
pub struct BuildContext<'a> {
    /// Per-item privacy levels (the domain definition).
    pub levels: &'a LevelPartition,
    /// Padding length ℓ for item-set mechanisms (ignored by single-item
    /// builders).
    pub padding: usize,
    /// Optional shared solver whose cache persists across trials/sweeps;
    /// builders that need a different model construct their own.
    pub solver: Option<&'a IdueSolver>,
}

impl BuildContext<'_> {
    fn solve(&self, model: Model) -> Result<idldp_core::params::LevelParams, BuildError> {
        let owned;
        let solver = match self.solver {
            // One context may build mechanisms for several models; the shared
            // solver only applies to its own model and other models fall back
            // to a fresh (uncached) solver instead of failing.
            Some(s) if s.model() == model => s,
            _ => {
                owned = IdueSolver::new(model);
                &owned
            }
        };
        Ok(solver.solve(self.levels)?)
    }
}

type Builder =
    Box<dyn Fn(&BuildContext<'_>) -> Result<Box<dyn BatchMechanism>, BuildError> + Send + Sync>;

/// One registered protocol.
pub struct RegistryEntry {
    /// Canonical lowercase name.
    pub name: &'static str,
    /// Additional accepted spellings (matched case-insensitively).
    pub aliases: &'static [&'static str],
    /// One-line human description (`idldp mechanisms` output).
    pub description: &'static str,
    /// The wire shape this protocol's reports take (static label; the
    /// exact [`idldp_core::report::ReportShape`] — e.g. OLH's hash range —
    /// depends on the built mechanism's parameters).
    pub report_shape: &'static str,
    /// Builder for single-item deployments (`None` if unsupported).
    single: Option<Builder>,
    /// Builder for item-set deployments (`None` if unsupported).
    item_set: Option<Builder>,
}

impl RegistryEntry {
    /// `true` if the protocol supports single-item deployments.
    pub fn supports_single_item(&self) -> bool {
        self.single.is_some()
    }

    /// `true` if the protocol supports item-set deployments.
    pub fn supports_item_set(&self) -> bool {
        self.item_set.is_some()
    }
}

/// The name → builder table.
///
/// # Examples
///
/// Resolve a protocol by name and run it — batch or streaming — without
/// naming a concrete mechanism type anywhere:
///
/// ```
/// use idldp_core::budget::Epsilon;
/// use idldp_core::levels::LevelPartition;
/// use idldp_sim::stream::{BitReportAccumulator, SeededReportStream, ShardedAccumulator};
/// use idldp_sim::{BuildContext, InputBatch, MechanismRegistry, SimulationPipeline};
///
/// let levels = LevelPartition::uniform(8, Epsilon::new(1.0).unwrap()).unwrap();
/// let ctx = BuildContext { levels: &levels, padding: 0, solver: None };
/// let mechanism = MechanismRegistry::standard()
///     .build_single_item("oue", &ctx)
///     .unwrap();
///
/// let items: Vec<u32> = (0..4000).map(|i| (i % 8) as u32).collect();
///
/// // Batch: the rayon-parallel pipeline.
/// let batch = SimulationPipeline::new()
///     .run(mechanism.as_ref(), InputBatch::Items(&items), 42)
///     .unwrap();
///
/// // Streaming: the same seeded reports, one batch per chunk, through
/// // sharded accumulators — bit-identical counts, any shard count.
/// let sink = ShardedAccumulator::new(
///     BitReportAccumulator::new(mechanism.report_len()),
///     4,
/// );
/// SeededReportStream::new(mechanism.as_ref(), InputBatch::Items(&items), 42)
///     .ingest_all(&sink)
///     .unwrap();
/// assert_eq!(sink.snapshot().counts(), batch.as_slice());
/// ```
pub struct MechanismRegistry {
    entries: Vec<RegistryEntry>,
}

fn core_err<T>(r: CoreResult<T>) -> Result<T, BuildError> {
    r.map_err(|e| BuildError::Core(e.to_string()))
}

fn boxed<M: BatchMechanism + 'static>(m: M) -> Box<dyn BatchMechanism> {
    Box::new(m)
}

impl MechanismRegistry {
    /// An empty registry (useful for tests and downstream extension).
    pub fn empty() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Registers an entry, replacing any previous entry with the same name.
    pub fn register(&mut self, entry: RegistryEntry) {
        self.entries.retain(|e| e.name != entry.name);
        self.entries.push(entry);
    }

    /// The shared registry with every protocol in the workspace.
    pub fn standard() -> &'static MechanismRegistry {
        static STANDARD: OnceLock<MechanismRegistry> = OnceLock::new();
        STANDARD.get_or_init(|| {
            let mut reg = MechanismRegistry::empty();
            reg.register(RegistryEntry {
                name: "rappor",
                aliases: &["sue", "symmetric-ue"],
                description: "symmetric unary encoding (Erlingsson et al.) at the minimum budget",
                report_shape: "bits",
                single: Some(Box::new(|ctx| {
                    core_err(Idue::rappor(
                        ctx.levels.num_items(),
                        ctx.levels.min_budget(),
                    ))
                    .map(boxed)
                })),
                item_set: Some(Box::new(|ctx| {
                    core_err(IduePs::rappor_ps(
                        ctx.levels.num_items(),
                        ctx.levels.min_budget(),
                        ctx.padding,
                    ))
                    .map(boxed)
                })),
            });
            reg.register(RegistryEntry {
                name: "oue",
                aliases: &["optimized-ue"],
                description: "optimized unary encoding (Wang et al.) at the minimum budget",
                report_shape: "bits",
                single: Some(Box::new(|ctx| {
                    core_err(Idue::oue(ctx.levels.num_items(), ctx.levels.min_budget())).map(boxed)
                })),
                item_set: Some(Box::new(|ctx| {
                    core_err(IduePs::oue_ps(
                        ctx.levels.num_items(),
                        ctx.levels.min_budget(),
                        ctx.padding,
                    ))
                    .map(boxed)
                })),
            });
            reg.register(RegistryEntry {
                name: "grr",
                aliases: &["direct", "k-rr"],
                description: "generalized randomized response (direct encoding)",
                report_shape: "value",
                single: Some(Box::new(|ctx| {
                    core_err(GeneralizedRandomizedResponse::new(
                        ctx.levels.min_budget(),
                        ctx.levels.num_items(),
                    ))
                    .map(boxed)
                })),
                item_set: None,
            });
            reg.register(RegistryEntry {
                name: "matrix",
                aliases: &["matrix-grr"],
                description: "explicit perturbation-matrix mechanism with exact LU calibration",
                report_shape: "value",
                single: Some(Box::new(|ctx| {
                    core_err(idldp_core::matrix_mech::PerturbationMatrix::grr(
                        ctx.levels.min_budget(),
                        ctx.levels.num_items(),
                    ))
                    .map(boxed)
                })),
                item_set: None,
            });
            reg.register(RegistryEntry {
                name: "ps",
                aliases: &["padding-sampling"],
                description: "bare padding-and-sampling (Algorithm 2; no perturbation stage)",
                report_shape: "value",
                single: None,
                item_set: Some(Box::new(|ctx| {
                    core_err(PsMechanism::new(ctx.levels.num_items(), ctx.padding)).map(boxed)
                })),
            });
            reg.register(RegistryEntry {
                name: "olh",
                aliases: &["local-hashing", "optimal-local-hashing"],
                description:
                    "optimal local hashing (Wang et al.): per-user hash into g = e^eps + 1 \
                              buckets, GRR over the hashed value",
                report_shape: "hashed (seed, value)",
                single: Some(Box::new(|ctx| {
                    core_err(idldp_core::olh::OptimalLocalHashing::new(
                        ctx.levels.min_budget(),
                        ctx.levels.num_items(),
                    ))
                    .map(boxed)
                })),
                item_set: None,
            });
            reg.register(RegistryEntry {
                name: "ss",
                aliases: &["subset", "subset-selection"],
                description:
                    "subset selection (Wang-Wu-Hu / Ye-Barg): report a random size-k item \
                              subset, k = m / (e^eps + 1)",
                report_shape: "item-set",
                single: Some(Box::new(|ctx| {
                    core_err(idldp_core::subset::SubsetSelection::new(
                        ctx.levels.min_budget(),
                        ctx.levels.num_items(),
                    ))
                    .map(boxed)
                })),
                item_set: None,
            });
            for model in Model::ALL {
                // `Model::name()` returns "opt0"/"opt1"/"opt2"; leak-free
                // static names for the three fixed models.
                let (name, description): (&'static str, &'static str) = match model {
                    Model::Opt0 => (
                        "idue-opt0",
                        "IDUE with per-level probabilities from the opt0 (uniform-b) model",
                    ),
                    Model::Opt1 => (
                        "idue-opt1",
                        "IDUE with per-level probabilities from the opt1 (convex) model",
                    ),
                    Model::Opt2 => (
                        "idue-opt2",
                        "IDUE with per-level probabilities from the opt2 (non-convex) model",
                    ),
                };
                reg.register(RegistryEntry {
                    name,
                    aliases: &[],
                    description,
                    report_shape: "bits",
                    single: Some(Box::new(move |ctx| {
                        let params = ctx.solve(model)?;
                        core_err(Idue::new(ctx.levels.clone(), &params)).map(boxed)
                    })),
                    item_set: Some(Box::new(move |ctx| {
                        let params = ctx.solve(model)?;
                        core_err(IduePs::new(ctx.levels.clone(), &params, ctx.padding)).map(boxed)
                    })),
                });
            }
            reg
        })
    }

    /// All registered canonical names, registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// All registered entries, registration order — the backing of the
    /// `idldp mechanisms` listing.
    pub fn entries(&self) -> impl Iterator<Item = &RegistryEntry> {
        self.entries.iter()
    }

    fn find(&self, name: &str) -> Result<&RegistryEntry, BuildError> {
        let needle = name.to_ascii_lowercase();
        // Figure-legend spellings ("RAPPOR", "IDUE-opt1") normalize to the
        // canonical names directly. Canonical names win over aliases across
        // the whole table, so registering an entry named after an existing
        // alias takes effect rather than being shadowed.
        self.entries
            .iter()
            .find(|e| e.name == needle)
            .or_else(|| {
                self.entries
                    .iter()
                    .find(|e| e.aliases.iter().any(|a| *a == needle))
            })
            .ok_or_else(|| {
                BuildError::Core(format!(
                    "unknown mechanism `{name}` (known: {})",
                    self.names().join(", ")
                ))
            })
    }

    /// `true` if `name` resolves to an entry.
    pub fn contains(&self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// Builds a single-item mechanism by name.
    ///
    /// # Errors
    /// Unknown name, unsupported deployment kind, solver failure, or
    /// structural construction failure.
    pub fn build_single_item(
        &self,
        name: &str,
        ctx: &BuildContext<'_>,
    ) -> Result<Box<dyn BatchMechanism>, BuildError> {
        let entry = self.find(name)?;
        let builder = entry.single.as_ref().ok_or_else(|| {
            BuildError::Core(format!(
                "mechanism `{}` does not support single-item deployments",
                entry.name
            ))
        })?;
        builder(ctx)
    }

    /// Builds an item-set mechanism by name.
    ///
    /// # Errors
    /// Same conditions as [`Self::build_single_item`].
    pub fn build_item_set(
        &self,
        name: &str,
        ctx: &BuildContext<'_>,
    ) -> Result<Box<dyn BatchMechanism>, BuildError> {
        let entry = self.find(name)?;
        let builder = entry.item_set.as_ref().ok_or_else(|| {
            BuildError::Core(format!(
                "mechanism `{}` does not support item-set deployments",
                entry.name
            ))
        })?;
        builder(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idldp_core::budget::Epsilon;

    fn levels() -> LevelPartition {
        LevelPartition::new(
            vec![0, 1, 1, 1, 1, 1],
            vec![Epsilon::new(1.0).unwrap(), Epsilon::new(4.0).unwrap()],
        )
        .unwrap()
    }

    #[test]
    fn standard_registry_builds_every_single_item_entry() {
        let reg = MechanismRegistry::standard();
        let l = levels();
        let ctx = BuildContext {
            levels: &l,
            padding: 3,
            solver: None,
        };
        for name in [
            "rappor",
            "oue",
            "grr",
            "matrix",
            "olh",
            "ss",
            "idue-opt1",
            "idue-opt2",
        ] {
            let mech = reg.build_single_item(name, &ctx).unwrap();
            assert_eq!(mech.domain_size(), 6, "{name}");
            assert!(mech.report_len() >= 6, "{name}");
        }
    }

    #[test]
    fn entries_carry_shape_and_description() {
        let reg = MechanismRegistry::standard();
        let entries: Vec<_> = reg.entries().collect();
        assert_eq!(entries.len(), reg.names().len());
        for e in &entries {
            assert!(!e.description.is_empty(), "{}", e.name);
            assert!(!e.report_shape.is_empty(), "{}", e.name);
            assert!(
                e.supports_single_item() || e.supports_item_set(),
                "{}: entry supports no deployment kind",
                e.name
            );
        }
        let olh = entries.iter().find(|e| e.name == "olh").unwrap();
        assert!(olh.report_shape.starts_with("hashed"));
        assert!(olh.supports_single_item() && !olh.supports_item_set());
        let ss = entries.iter().find(|e| e.name == "ss").unwrap();
        assert_eq!(ss.report_shape, "item-set");
    }

    #[test]
    fn new_mechanisms_resolve_by_alias() {
        let reg = MechanismRegistry::standard();
        let l = levels();
        let ctx = BuildContext {
            levels: &l,
            padding: 0,
            solver: None,
        };
        for name in ["local-hashing", "OLH", "subset-selection", "SUBSET"] {
            assert!(reg.build_single_item(name, &ctx).is_ok(), "{name}");
        }
        // Both run at the partition minimum like the other LDP baselines.
        for name in ["olh", "ss"] {
            let mech = reg.build_single_item(name, &ctx).unwrap();
            assert!(
                (mech.ldp_epsilon() - 1.0).abs() < 1e-6,
                "{name}: {}",
                mech.ldp_epsilon()
            );
        }
    }

    #[test]
    fn lookup_is_case_insensitive_and_alias_aware() {
        let reg = MechanismRegistry::standard();
        let l = levels();
        let ctx = BuildContext {
            levels: &l,
            padding: 2,
            solver: None,
        };
        assert!(reg.build_single_item("RAPPOR", &ctx).is_ok());
        assert!(reg.build_single_item("SUE", &ctx).is_ok());
        assert!(reg.build_item_set("IDUE-OPT2", &ctx).is_ok());
        assert!(reg.contains("oue"));
        assert!(!reg.contains("nonsense"));
    }

    #[test]
    fn kind_specific_entries_reject_other_kind() {
        let reg = MechanismRegistry::standard();
        let l = levels();
        let ctx = BuildContext {
            levels: &l,
            padding: 2,
            solver: None,
        };
        assert!(reg.build_item_set("grr", &ctx).is_err());
        assert!(reg.build_single_item("ps", &ctx).is_err());
        assert!(reg.build_single_item("unknown", &ctx).is_err());
    }

    #[test]
    fn canonical_name_beats_alias_of_earlier_entry() {
        // "sue" is an alias of the builtin rappor entry; a later entry
        // *named* "sue" must win the lookup rather than be shadowed.
        let mut reg = MechanismRegistry::empty();
        reg.register(RegistryEntry {
            name: "rappor",
            aliases: &["sue"],
            description: "test entry",
            report_shape: "bits",
            single: Some(Box::new(|ctx| {
                core_err(Idue::rappor(
                    ctx.levels.num_items(),
                    ctx.levels.min_budget(),
                ))
                .map(boxed)
            })),
            item_set: None,
        });
        reg.register(RegistryEntry {
            name: "sue",
            aliases: &[],
            description: "test entry",
            report_shape: "bits",
            single: Some(Box::new(|ctx| {
                core_err(Idue::oue(ctx.levels.num_items(), ctx.levels.min_budget())).map(boxed)
            })),
            item_set: None,
        });
        let l = levels();
        let ctx = BuildContext {
            levels: &l,
            padding: 0,
            solver: None,
        };
        let mech = reg.build_single_item("sue", &ctx).unwrap();
        let idue = mech.as_any().downcast_ref::<Idue>().unwrap();
        // OUE keeps a = 1/2 — distinguishes it from the RAPPOR builder.
        assert!((idue.unary_encoding().a()[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shared_context_builds_multiple_models() {
        let l = levels();
        let solver = IdueSolver::new(Model::Opt1);
        let ctx = BuildContext {
            levels: &l,
            padding: 0,
            solver: Some(&solver),
        };
        let reg = MechanismRegistry::standard();
        assert!(reg.build_single_item("idue-opt1", &ctx).is_ok());
        assert!(reg.build_single_item("idue-opt2", &ctx).is_ok());
        assert_eq!(solver.cache_len(), 1, "only the matching model is cached");
    }

    #[test]
    fn baselines_run_at_min_budget() {
        let reg = MechanismRegistry::standard();
        let l = levels();
        let ctx = BuildContext {
            levels: &l,
            padding: 2,
            solver: None,
        };
        for name in ["rappor", "oue", "grr"] {
            let mech = reg.build_single_item(name, &ctx).unwrap();
            assert!(
                (mech.ldp_epsilon() - 1.0).abs() < 1e-9,
                "{name}: {}",
                mech.ldp_epsilon()
            );
        }
    }
}
