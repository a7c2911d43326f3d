//! Table I of the survey, as a queryable registry (experiment T1).
//!
//! The paper's only table classifies security aspects and solutions in
//! OSNs. This module encodes that classification and maps every row to the
//! workspace module implementing it, so `dosn-bench t1` regenerates the
//! table programmatically and EXPERIMENTS.md can diff it against the
//! paper.

/// Top-level categories of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Hiding data from illegitimate parties while serving legitimate ones.
    DataPrivacy,
    /// Protection from unauthorized/improper modification and forgery.
    DataIntegrity,
    /// Finding users/content without leaking participants' information.
    SecureSocialSearch,
}

impl Category {
    /// The category's display name as printed in Table I.
    pub fn display(&self) -> &'static str {
        match self {
            Category::DataPrivacy => "Data privacy",
            Category::DataIntegrity => "Data integrity",
            Category::SecureSocialSearch => "Secure Social Search",
        }
    }
}

/// One row of Table I: a security aspect/solution with its implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaxonomyRow {
    /// The enclosing category.
    pub category: Category,
    /// The aspect/solution as named by the paper.
    pub aspect: &'static str,
    /// The workspace module implementing it.
    pub implemented_by: &'static str,
    /// The experiment exercising it (see EXPERIMENTS.md).
    pub experiment: &'static str,
}

/// The full Table I, in the paper's row order.
pub fn table1() -> Vec<TaxonomyRow> {
    use Category::*;
    let rows = [
        (
            DataPrivacy,
            "Information substitution",
            "dosn_core::privacy::substitution",
            "E1",
        ),
        (
            DataPrivacy,
            "Symmetric key encryption",
            "dosn_core::privacy::symmetric",
            "E1/E2",
        ),
        (
            DataPrivacy,
            "Public key encryption",
            "dosn_core::privacy::pke",
            "E1/E2",
        ),
        (
            DataPrivacy,
            "Attribute based encryption",
            "dosn_core::privacy::abe_scheme",
            "E1/E2",
        ),
        (
            DataPrivacy,
            "Identity based broadcast encryption",
            "dosn_core::privacy::ibbe_scheme",
            "E1/E2",
        ),
        (
            DataPrivacy,
            "Hybrid encryption",
            "dosn_core::privacy::hummingbird",
            "E1/E8",
        ),
        (
            DataIntegrity,
            "Integrity of data owner and data content",
            "dosn_core::integrity::envelope",
            "E3",
        ),
        (
            DataIntegrity,
            "Historical integrity",
            "dosn_core::integrity::timeline + history",
            "E3/E4",
        ),
        (
            DataIntegrity,
            "Integrity of data relations",
            "dosn_core::integrity::relations",
            "E3",
        ),
        (
            SecureSocialSearch,
            "Content privacy",
            "dosn_core::search::blind_subscription",
            "E8",
        ),
        (
            SecureSocialSearch,
            "Privacy of searcher",
            "dosn_core::search::{proxy, circles, zk_access}",
            "E7",
        ),
        (
            SecureSocialSearch,
            "Privacy of searched data owner",
            "dosn_core::search::zk_access (resource handlers)",
            "E7",
        ),
        (
            SecureSocialSearch,
            "Trusted search result",
            "dosn_core::search::trust_rank",
            "E7",
        ),
    ];
    rows.into_iter()
        .map(
            |(category, aspect, implemented_by, experiment)| TaxonomyRow {
                category,
                aspect,
                implemented_by,
                experiment,
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_row_counts() {
        let rows = table1();
        assert_eq!(rows.len(), 13);
        let privacy = rows
            .iter()
            .filter(|r| r.category == Category::DataPrivacy)
            .count();
        let integrity = rows
            .iter()
            .filter(|r| r.category == Category::DataIntegrity)
            .count();
        let search = rows
            .iter()
            .filter(|r| r.category == Category::SecureSocialSearch)
            .count();
        // Exactly the paper's Table I: 6 privacy, 3 integrity, 4 search.
        assert_eq!((privacy, integrity, search), (6, 3, 4));
    }

    #[test]
    fn every_row_is_mapped_to_an_implementation_and_experiment() {
        for row in table1() {
            assert!(row.implemented_by.starts_with("dosn_core::"), "{row:?}");
            assert!(row.experiment.starts_with('E'), "{row:?}");
        }
    }

    #[test]
    fn category_display_names() {
        assert_eq!(Category::DataPrivacy.display(), "Data privacy");
        assert_eq!(Category::DataIntegrity.display(), "Data integrity");
        assert_eq!(
            Category::SecureSocialSearch.display(),
            "Secure Social Search"
        );
    }
}
