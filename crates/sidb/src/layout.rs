//! Dot-accurate SiDB layouts.

use fcn_coords::LatticeCoord;

/// A set of SiDB sites on the H-Si(100)-2×1 surface.
///
/// Sites are kept sorted and de-duplicated; indices into the layout are
/// stable once all sites are added and are used by
/// [`crate::charge::ChargeConfiguration`].
///
/// # Examples
///
/// ```
/// use sidb_sim::layout::SidbLayout;
///
/// let mut layout = SidbLayout::new();
/// layout.add_site((0, 0, 0));
/// layout.add_site((2, 0, 0));
/// layout.add_site((0, 0, 0)); // duplicates are ignored
/// assert_eq!(layout.num_sites(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SidbLayout {
    sites: Vec<LatticeCoord>,
}

impl SidbLayout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a layout from an iterator of sites.
    pub fn from_sites<I, C>(sites: I) -> Self
    where
        I: IntoIterator<Item = C>,
        C: Into<LatticeCoord>,
    {
        let mut layout = Self::new();
        for s in sites {
            layout.add_site(s);
        }
        layout
    }

    /// Adds a site; duplicates are ignored. Returns the site's index.
    pub fn add_site(&mut self, site: impl Into<LatticeCoord>) -> usize {
        let site = site.into();
        match self.sites.binary_search(&site) {
            Ok(i) => i,
            Err(i) => {
                self.sites.insert(i, site);
                i
            }
        }
    }

    /// Merges all sites of `other` into this layout.
    pub fn merge(&mut self, other: &SidbLayout) {
        for &s in &other.sites {
            self.add_site(s);
        }
    }

    /// The sites in sorted order.
    pub fn sites(&self) -> &[LatticeCoord] {
        &self.sites
    }

    /// Number of SiDBs.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// True if the layout has no sites.
    pub(crate) fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The index of a site, if present.
    pub fn index_of(&self, site: impl Into<LatticeCoord>) -> Option<usize> {
        self.sites.binary_search(&site.into()).ok()
    }

    /// A copy translated by whole lattice cells.
    pub fn translated(&self, dx: i32, dy: i32) -> SidbLayout {
        SidbLayout::from_sites(self.sites.iter().map(|s| s.translated(dx, dy)))
    }

    /// A copy mirrored horizontally around lattice column `axis_x`.
    pub fn mirrored_x(&self, axis_x: i32) -> SidbLayout {
        SidbLayout::from_sites(self.sites.iter().map(|s| s.mirrored_x(axis_x)))
    }

    /// Bounding box `((min_x, min_y_row), (max_x, max_y_row))` in lattice
    /// cells, or `None` for an empty layout. `b`-offsets are ignored.
    pub fn bounding_box(&self) -> Option<((i32, i32), (i32, i32))> {
        if self.sites.is_empty() {
            return None;
        }
        let min_x = self.sites.iter().map(|s| s.x).min().expect("non-empty");
        let max_x = self.sites.iter().map(|s| s.x).max().expect("non-empty");
        let min_y = self.sites.iter().map(|s| s.y).min().expect("non-empty");
        let max_y = self.sites.iter().map(|s| s.y).max().expect("non-empty");
        Some(((min_x, min_y), (max_x, max_y)))
    }

    /// Pairwise distance in ångström between sites `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub(crate) fn distance_angstrom(&self, i: usize, j: usize) -> f64 {
        self.sites[i].distance_angstrom(self.sites[j])
    }
}

impl FromIterator<LatticeCoord> for SidbLayout {
    fn from_iter<I: IntoIterator<Item = LatticeCoord>>(iter: I) -> Self {
        Self::from_sites(iter)
    }
}

impl Extend<LatticeCoord> for SidbLayout {
    fn extend<I: IntoIterator<Item = LatticeCoord>>(&mut self, iter: I) {
        for s in iter {
            self.add_site(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_are_sorted_and_unique() {
        let layout = SidbLayout::from_sites([(3, 0, 0), (1, 0, 0), (3, 0, 0), (2, 1, 1)]);
        assert_eq!(layout.num_sites(), 3);
        let xs: Vec<i32> = layout.sites().iter().map(|s| s.x).collect();
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(xs, sorted);
    }

    #[test]
    fn index_of_finds_sites() {
        let layout = SidbLayout::from_sites([(0, 0, 0), (5, 2, 1)]);
        assert_eq!(layout.index_of((5, 2, 1)), Some(1));
        assert_eq!(layout.index_of((5, 2, 0)), None);
        assert_eq!(layout.index_of((0, 0, 0)), Some(0));
    }

    #[test]
    fn translation_preserves_distances() {
        let layout = SidbLayout::from_sites([(0, 0, 0), (3, 1, 1)]);
        let moved = layout.translated(7, -2);
        assert!((layout.distance_angstrom(0, 1) - moved.distance_angstrom(0, 1)).abs() < 1e-12);
    }

    #[test]
    fn mirror_preserves_distance_multiset() {
        // Mirroring re-sorts the site list, so compare the sorted pairwise
        // distance multiset instead of index-aligned distances.
        let layout = SidbLayout::from_sites([(0, 0, 0), (3, 1, 1), (5, 0, 0)]);
        let mirrored = layout.mirrored_x(10);
        let dists = |l: &SidbLayout| {
            let mut d = Vec::new();
            for i in 0..l.num_sites() {
                for j in (i + 1)..l.num_sites() {
                    d.push(l.distance_angstrom(i, j));
                }
            }
            d.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            d
        };
        for (a, b) in dists(&layout).iter().zip(dists(&mirrored)) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn bounding_box_spans_the_sites() {
        let layout = SidbLayout::from_sites([(0, 0, 0), (10, 5, 0)]);
        assert_eq!(layout.bounding_box(), Some(((0, 0), (10, 5))));
    }

    #[test]
    fn merge_unions_sites() {
        let mut a = SidbLayout::from_sites([(0, 0, 0)]);
        let b = SidbLayout::from_sites([(0, 0, 0), (1, 1, 0)]);
        a.merge(&b);
        assert_eq!(a.num_sites(), 2);
    }

    #[test]
    fn empty_layout_behaviour() {
        let layout = SidbLayout::new();
        assert!(layout.is_empty());
        assert_eq!(layout.bounding_box(), None);
    }
}
