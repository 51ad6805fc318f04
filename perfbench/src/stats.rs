//! Order statistics over samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between closest
/// ranks; 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Share of the machine's CPU time the hypervisor may steal while a
/// sample is taken before the sample counts as disturbed.
const STEAL_LIMIT: f64 = 0.01;

/// Timings of one metric, each with the share of the machine's CPU time
/// the hypervisor stole while it was taken (`sys::stolen_share`). Such a
/// sample times the neighbours as much as the program, so figures come
/// from the less disturbed half: every sample with at most
/// [`STEAL_LIMIT`] stolen, or, when those are fewer than half, the half
/// with the least stolen.
#[derive(Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    stolen: Vec<f64>,
}

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, value: f64, stolen: f64) {
        self.values.push(value);
        self.stolen.push(stolen);
    }

    /// Samples taken.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Samples with at most [`STEAL_LIMIT`] stolen.
    pub fn undisturbed(&self) -> usize {
        self.stolen.iter().filter(|&&s| s <= STEAL_LIMIT).count()
    }

    /// The `q`-quantile of all samples, disturbed or not.
    pub fn quantile_all(&self, q: f64) -> f64 {
        quantile(&self.values, q)
    }

    /// The `q`-quantile of the less disturbed half of the samples.
    pub fn quantile(&self, q: f64) -> f64 {
        let cut = median(&self.stolen).max(STEAL_LIMIT);
        let kept: Vec<f64> = self
            .values
            .iter()
            .zip(&self.stolen)
            .filter(|&(_, &s)| s <= cut)
            .map(|(&v, _)| v)
            .collect();
        quantile(&kept, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn figures_come_from_the_less_disturbed_half() {
        let mut s = Samples::default();
        s.push(1.0, 0.0);
        s.push(9.0, 0.2);
        s.push(3.0, 0.005);
        // Two of three within the limit: the disturbed one is set aside.
        assert_eq!(s.quantile(0.5), 2.0);
        assert_eq!((s.len(), s.undisturbed()), (3, 2));
        // Steal throughout: the half with the least stolen remains.
        let mut s = Samples::default();
        for (v, stolen) in [(5.0, 0.3), (2.0, 0.05), (4.0, 0.2), (1.0, 0.02)] {
            s.push(v, stolen);
        }
        assert_eq!(s.quantile(0.5), 1.5);
        assert_eq!(s.quantile_all(0.5), 3.0);
        assert_eq!(s.undisturbed(), 0);
    }
}
