//! Command-line scale handling shared by the table/figure binaries.
//!
//! The paper's testbed is a 32 GB Xeon with a 15-minute timeout per run; this
//! reproduction targets laptops and CI containers, so every binary scales the
//! paper's dataset sizes down by a configurable divisor (default 20) and
//! reports the divisor in its output so a recorded result carries it.

/// Scale configuration parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Paper dataset sizes are divided by this factor.
    pub divisor: usize,
    /// Skip the naive baseline (useful for the largest runs).
    pub skip_naive: bool,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            divisor: 20,
            skip_naive: false,
        }
    }
}

impl ScaleConfig {
    /// Parses `--scale <divisor>` and `--skip-naive` from an argument list
    /// (unknown arguments are ignored so binaries can add their own flags).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut config = ScaleConfig::default();
        let args: Vec<String> = args.into_iter().collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    if let Some(value) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                        config.divisor = value.max(1);
                        i += 1;
                    }
                }
                "--skip-naive" => config.skip_naive = true,
                _ => {}
            }
            i += 1;
        }
        config
    }

    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Scales a paper-sized triple count down by the divisor (minimum 1,000
    /// triples so tiny scales still exercise the engines).
    pub fn triples(&self, paper_size: usize) -> usize {
        (paper_size / self.divisor).max(1_000)
    }

    /// Scales a chain length down by the divisor (minimum 50 nodes).
    pub fn chain(&self, paper_length: usize) -> usize {
        (paper_length / self.divisor).max(50)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = ScaleConfig::default();
        assert_eq!(c.divisor, 20);
        assert!(!c.skip_naive);
    }

    #[test]
    fn parses_scale_and_skip_naive() {
        let c = ScaleConfig::from_args(
            ["--scale", "5", "--skip-naive", "--unknown"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(c.divisor, 5);
        assert!(c.skip_naive);
    }

    #[test]
    fn ignores_bad_values_and_enforces_minimums() {
        let c = ScaleConfig::from_args(["--scale", "zero"].iter().map(|s| s.to_string()));
        assert_eq!(c.divisor, 20);
        let c = ScaleConfig::from_args(["--scale", "0"].iter().map(|s| s.to_string()));
        assert_eq!(c.divisor, 1);
        assert_eq!(ScaleConfig::default().triples(1_000_000), 50_000);
        assert_eq!(ScaleConfig::default().triples(100), 1_000);
        assert_eq!(ScaleConfig::default().chain(100), 50);
        assert_eq!(ScaleConfig::default().chain(25_000), 1_250);
    }
}
