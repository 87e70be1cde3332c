//! The miss-rate curve data type.

use std::fmt;

/// One sample of a miss-rate curve: the LLC capacity and the misses per
/// thousand (thread) instructions measured or predicted at that capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrcPoint {
    /// LLC capacity in bytes.
    pub capacity_bytes: u64,
    /// LLC misses per thousand instructions at this capacity.
    pub mpki: f64,
}

/// A miss-rate curve: MPKI as a function of LLC capacity, sampled at the
/// capacities of the scale models and candidate target systems (the paper's
/// Figure 2). Points are kept sorted by capacity.
///
/// # Example
///
/// ```
/// use gsim_mem::mrc::MissRateCurve;
///
/// let mrc = MissRateCurve::from_pairs([
///     (2_228_224, 8.1),
///     (4_456_448, 7.6),
///     (8_912_896, 7.0),
/// ]);
/// assert_eq!(mrc.len(), 3);
/// assert!(mrc.mpki_at(4_456_448).unwrap() > 7.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MissRateCurve {
    points: Vec<MrcPoint>,
}

impl MissRateCurve {
    /// Creates an empty curve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a curve from `(capacity_bytes, mpki)` pairs; sorts by capacity.
    pub fn from_pairs<I: IntoIterator<Item = (u64, f64)>>(pairs: I) -> Self {
        let mut points: Vec<MrcPoint> = pairs
            .into_iter()
            .map(|(capacity_bytes, mpki)| MrcPoint {
                capacity_bytes,
                mpki,
            })
            .collect();
        points.sort_by_key(|p| p.capacity_bytes);
        Self { points }
    }

    /// Adds a point, keeping the curve sorted; replaces an existing point at
    /// the same capacity.
    pub fn insert(&mut self, capacity_bytes: u64, mpki: f64) {
        match self
            .points
            .binary_search_by_key(&capacity_bytes, |p| p.capacity_bytes)
        {
            Ok(i) => self.points[i].mpki = mpki,
            Err(i) => self.points.insert(
                i,
                MrcPoint {
                    capacity_bytes,
                    mpki,
                },
            ),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the curve has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The samples, sorted by capacity.
    pub fn points(&self) -> &[MrcPoint] {
        &self.points
    }

    /// MPKI at exactly `capacity_bytes`, if sampled.
    pub fn mpki_at(&self, capacity_bytes: u64) -> Option<f64> {
        self.points
            .binary_search_by_key(&capacity_bytes, |p| p.capacity_bytes)
            .ok()
            .map(|i| self.points[i].mpki)
    }

    /// Iterates over the points.
    pub fn iter(&self) -> std::slice::Iter<'_, MrcPoint> {
        self.points.iter()
    }
}

impl FromIterator<(u64, f64)> for MissRateCurve {
    fn from_iter<I: IntoIterator<Item = (u64, f64)>>(iter: I) -> Self {
        Self::from_pairs(iter)
    }
}

impl fmt::Display for MissRateCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MRC[")?;
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{:.3} MB: {:.2}",
                p.capacity_bytes as f64 / (1024.0 * 1024.0),
                p.mpki
            )?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_sorted() {
        let mrc = MissRateCurve::from_pairs([(200, 1.0), (100, 2.0)]);
        assert_eq!(mrc.points()[0].capacity_bytes, 100);
        assert_eq!(mrc.points()[1].capacity_bytes, 200);
    }

    #[test]
    fn insert_replaces_same_capacity() {
        let mut mrc = MissRateCurve::new();
        mrc.insert(100, 5.0);
        mrc.insert(100, 3.0);
        assert_eq!(mrc.len(), 1);
        assert_eq!(mrc.mpki_at(100), Some(3.0));
    }

    #[test]
    fn display_mentions_capacity() {
        let mrc = MissRateCurve::from_pairs([(2_228_224, 8.0)]);
        assert!(format!("{mrc}").contains("2.125 MB"));
    }
}
