//! Pan-viral panel workloads: a multi-target catalog built from
//! `sf-genome`'s virus catalog and strain machinery.
//!
//! The panel answers the scenario the single-reference benchmarks cannot:
//! one flow cell screening for *any* of a set of circulating viruses, with
//! near-identical strains of the primary target in the catalog (the paper's
//! Table 2 point — strains differ by only 17–23 SNPs, so telling them apart
//! at read level is hopeless, but telling the *virus* apart is not). Targets
//! therefore carry a `group`: every strain of a virus shares its group, and
//! accuracy is pinned at group level in `tests/panel_accuracy.rs`.

use crate::classifier::ShardedClassifier;
use sf_genome::catalog::epidemic_viruses;
use sf_genome::random::GenomeGenerator;
use sf_genome::strain::simulate_table2_strains;
use sf_genome::Sequence;
use sf_pore_model::KmerModel;
use sf_sdtw::{FilterConfig, SquiggleFilter, TargetId};

/// One target in a pan-viral panel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanelTarget {
    /// Unique display name (virus name, or `"<virus> <clade>"` for strains).
    pub name: String,
    /// Attribution group: strains share their base virus's group.
    pub group: String,
    /// The target's reference genome.
    pub genome: Sequence,
}

/// Shape of a generated pan-viral panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanelConfig {
    /// Reference length per target (real epidemic genomes are 7–30 kb; the
    /// panel scales them down so sweeps stay fast while keeping per-virus
    /// GC content from the catalog).
    pub genome_length: usize,
    /// Distinct catalog viruses (the first `viruses` entries of
    /// [`epidemic_viruses`]).
    pub viruses: usize,
    /// Near-identical Table 2 strains of the *first* virus appended to the
    /// catalog (at most 5).
    pub strains: usize,
    /// Master seed; every genome and strain derives deterministically.
    pub seed: u64,
}

impl Default for PanelConfig {
    /// 4 distinct viruses + 5 strains of the first = a 9-target panel.
    fn default() -> Self {
        PanelConfig {
            genome_length: 8_000,
            viruses: 4,
            strains: 5,
            seed: 0,
        }
    }
}

impl PanelConfig {
    /// Total targets the panel will contain.
    pub fn target_count(&self) -> usize {
        self.viruses + self.strains
    }
}

/// Generates a deterministic pan-viral panel: one synthetic genome per
/// catalog virus (named and GC-matched from [`epidemic_viruses`]), plus
/// Table 2 strains of the first virus.
///
/// # Examples
///
/// ```
/// use sf_shard::{pan_viral_panel, PanelConfig};
///
/// let config = PanelConfig { genome_length: 1_000, ..PanelConfig::default() };
/// let panel = pan_viral_panel(&config);
/// assert_eq!(panel.len(), 9);
/// assert_eq!(panel[0].name, "Poliovirus");
/// // Strains of the first virus share its group...
/// assert_eq!(panel[4].group, panel[0].group);
/// // ...but every name is unique.
/// assert!(panel.iter().all(|t| panel.iter().filter(|u| u.name == t.name).count() == 1));
/// ```
pub fn pan_viral_panel(config: &PanelConfig) -> Vec<PanelTarget> {
    let catalog = epidemic_viruses();
    assert!(
        (1..=catalog.len()).contains(&config.viruses),
        "viruses must be 1..={}",
        catalog.len()
    );
    assert!(config.strains <= 5, "Table 2 defines 5 clades");
    let mut panel: Vec<PanelTarget> = catalog
        .iter()
        .take(config.viruses)
        .enumerate()
        .map(|(i, virus)| PanelTarget {
            name: virus.name.to_string(),
            group: virus.name.to_string(),
            genome: GenomeGenerator::new(config.seed.wrapping_add(1 + i as u64))
                .gc_content(virus.gc_content)
                .generate(config.genome_length),
        })
        .collect();
    let base = panel[0].clone();
    panel.extend(
        simulate_table2_strains(&base.genome, config.seed)
            .into_iter()
            .take(config.strains)
            .map(|strain| PanelTarget {
                name: format!("{} {}", base.name, strain.clade),
                group: base.group.clone(),
                genome: strain.genome,
            }),
    );
    panel
}

/// Builds a [`ShardedClassifier`] with one [`SquiggleFilter`] per panel
/// target, all sharing `config`.
pub fn panel_classifier(
    model: &KmerModel,
    panel: &[PanelTarget],
    config: FilterConfig,
) -> ShardedClassifier<SquiggleFilter> {
    ShardedClassifier::new(panel.iter().map(|target| {
        (
            target.name.clone(),
            SquiggleFilter::from_genome(model, &target.genome, config),
        )
    }))
}

/// The attribution group of a winning target, for group-level accuracy
/// scoring, or `None` for an id outside the panel.
pub fn target_group(panel: &[PanelTarget], target: TargetId) -> Option<&str> {
    panel
        .get(target.index())
        .map(|target| target.group.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_is_deterministic_and_respects_shape() {
        let config = PanelConfig {
            genome_length: 1_200,
            viruses: 3,
            strains: 2,
            seed: 9,
        };
        let a = pan_viral_panel(&config);
        let b = pan_viral_panel(&config);
        assert_eq!(a, b);
        assert_eq!(a.len(), config.target_count());
        assert!(a.iter().all(|t| t.genome.len() == 1_200));
        // Distinct viruses, distinct genomes.
        assert_ne!(a[0].genome, a[1].genome);
        // Strains are near-identical to their base, not to other viruses.
        assert!(a[3].genome.mismatches(&a[0].genome) <= 23);
        assert!(a[3].genome.mismatches(&a[1].genome) > 100);
    }

    #[test]
    fn target_group_is_none_outside_the_panel() {
        let config = PanelConfig {
            genome_length: 500,
            viruses: 2,
            strains: 1,
            seed: 4,
        };
        let panel = pan_viral_panel(&config);
        assert_eq!(
            target_group(&panel, TargetId(2)),
            Some(panel[0].group.as_str())
        );
        assert_eq!(target_group(&panel, TargetId(3)), None);
    }

    #[test]
    fn gc_content_tracks_the_catalog() {
        let config = PanelConfig {
            genome_length: 6_000,
            viruses: 4,
            strains: 0,
            seed: 3,
        };
        let panel = pan_viral_panel(&config);
        for (target, virus) in panel.iter().zip(epidemic_viruses()) {
            assert_eq!(target.name, virus.name);
            assert!(
                (target.genome.gc_content() - virus.gc_content).abs() < 0.05,
                "{}: gc {} vs {}",
                virus.name,
                target.genome.gc_content(),
                virus.gc_content
            );
        }
    }
}
