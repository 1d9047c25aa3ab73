//! One runner for every Monte-Carlo matrix (DESIGN.md §13, §16, §17).
//!
//! A matrix is a declaration ([`Matrix`]): its rows, its columns, a
//! cell function `(row, col, seed) → metric row`, a header and a
//! per-cell render function, and a list of `--check` gates.
//! [`Matrix::run`] owns the rest. All `seeds × rows × cols` cells go
//! through the worker pool as one flat tagged fan-out
//! ([`MonteCarlo::run_tagged`]), so a slow cell on one seed never
//! serializes the others. The outcomes regroup per cell by index
//! arithmetic, with failure indices rewritten to seed positions so
//! replay hints read as in a plain per-cell run. Reports are
//! byte-identical at any thread count.
//!
//! [`MonteCarlo::run_tagged`]: gridmarket::sched::MonteCarlo::run_tagged

use gridmarket::chaos_runner;
use gridmarket::sched::{seed_stream, McBatch, McOutcome, McReport, ScenarioFailure};

use crate::mc::McArgs;

/// One cell's named metric row for one seed.
pub type Row = Vec<(&'static str, f64)>;

/// A `--check` gate: whether it holds, and the claim it checks (joined
/// into the OK line, listed in the FAILED line).
pub type Gate = fn(&MatrixReport) -> (bool, String);

/// The gate every matrix runs first: no cell may have panicked.
const ZERO_QUARANTINED: Gate = |m| {
    let n = m.total_quarantined();
    (n == 0, format!("{n} quarantined"))
};

/// A matrix declaration.
pub struct Matrix {
    /// Binary name, printed in the `--check` verdict.
    pub name: &'static str,
    /// Row labels (policies or figures), report order.
    pub rows: Vec<&'static str>,
    /// Column labels, report order.
    pub cols: Vec<&'static str>,
    /// One `(row, col, seed)` run, scored. A panic quarantines the seed.
    pub cell: fn(&'static str, &'static str, u64) -> Row,
    /// The report text above the first cell.
    pub header: fn(&McArgs) -> String,
    /// One finished cell's report text.
    pub render: fn(&Cell) -> String,
    /// `--check` gates, after the zero-quarantine gate.
    pub gates: Vec<Gate>,
}

/// One finished cell: a Student-t report over the seeds.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Row label.
    pub row: &'static str,
    /// Column label.
    pub col: &'static str,
    /// Report over the completed seeds.
    pub report: McReport,
    /// Quarantined Monte-Carlo failures (seed, panic, replay hint).
    pub failures: Vec<ScenarioFailure>,
}

impl Cell {
    /// One `  QUARANTINED …` line per failure.
    pub fn quarantined(&self) -> String {
        self.failures
            .iter()
            .map(|f| format!("  QUARANTINED {f}\n"))
            .collect()
    }
}

/// A finished matrix.
#[derive(Clone, Debug)]
pub struct MatrixReport {
    /// The sweep parameters it ran with.
    pub args: McArgs,
    /// All cells, row-major in declaration order.
    pub cells: Vec<Cell>,
    /// Rendered report.
    pub rendered: String,
}

impl MatrixReport {
    /// Look up one cell.
    pub fn cell(&self, row: &str, col: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| c.row == row && c.col == col)
    }

    /// A cell's mean for `metric`.
    pub fn mean(&self, row: &str, col: &str, metric: &str) -> Option<f64> {
        self.cell(row, col)
            .and_then(|c| c.report.metric(metric))
            .map(|s| s.mean)
    }

    /// Two rows' means for `metric` in column `col`, when both exist.
    pub fn means(&self, rows: [&str; 2], col: &str, metric: &str) -> Option<(f64, f64)> {
        Some((self.mean(rows[0], col, metric)?, self.mean(rows[1], col, metric)?))
    }

    /// Total quarantined Monte-Carlo runs (panics) across all cells.
    pub fn total_quarantined(&self) -> usize {
        self.cells.iter().map(|c| c.failures.len()).sum()
    }
}

impl Matrix {
    /// Run every cell over `args.seeds` seeds and render the report.
    pub fn run(&self, args: McArgs) -> MatrixReport {
        let tags: Vec<(&'static str, &'static str)> = self
            .rows
            .iter()
            .flat_map(|&r| self.cols.iter().map(move |&c| (r, c)))
            .collect();
        let items: Vec<(u64, (&'static str, &'static str))> = seed_stream(args.base_seed, args.seeds)
            .into_iter()
            .flat_map(|s| tags.iter().map(move |&t| (s, t)))
            .collect();
        let cell = self.cell;
        let batch = chaos_runner(args.threads)
            .confidence(args.confidence)
            .run_tagged(&items, move |seed, &(row, col)| cell(row, col, seed));

        let n = tags.len();
        let mut grouped: Vec<Vec<McOutcome<Row>>> = (0..n).map(|_| Vec::new()).collect();
        for o in batch.outcomes {
            let index = o.index / n;
            grouped[o.index % n].push(McOutcome {
                seed: o.seed,
                index,
                result: o.result.map_err(|f| ScenarioFailure { index, ..f }),
            });
        }
        let cells: Vec<Cell> = grouped
            .into_iter()
            .zip(tags)
            .map(|(outcomes, (row, col))| {
                let b = McBatch::from_outcomes(outcomes, args.confidence);
                Cell {
                    row,
                    col,
                    report: b.report(Clone::clone),
                    failures: b.failures().cloned().collect(),
                }
            })
            .collect();
        let mut rendered = (self.header)(&args);
        for c in &cells {
            rendered.push_str(&(self.render)(c));
        }
        MatrixReport {
            args,
            cells,
            rendered,
        }
    }

    /// Apply the zero-quarantine gate and every declared gate:
    /// `Ok(OK line)` when all hold, otherwise `Err(FAILED line)`.
    pub fn check(&self, m: &MatrixReport) -> Result<String, String> {
        let verdicts: Vec<(bool, String)> = std::iter::once(&ZERO_QUARANTINED)
            .chain(&self.gates)
            .map(|gate| gate(m))
            .collect();
        let failed: Vec<&str> = verdicts
            .iter()
            .filter(|(ok, _)| !ok)
            .map(|(_, claim)| claim.as_str())
            .collect();
        if !failed.is_empty() {
            return Err(format!("{} --check FAILED: {}", self.name, failed.join("; ")));
        }
        // A one-column matrix is a per-policy sweep.
        let size = if self.cols.len() == 1 {
            format!("{} policies", self.rows.len())
        } else {
            format!("{} cells", m.cells.len())
        };
        let claims: Vec<&str> = verdicts.iter().map(|(_, claim)| claim.as_str()).collect();
        Ok(format!(
            "{} --check OK: {} seeds x {size}, {}",
            self.name,
            m.args.seeds,
            claims.join(", ")
        ))
    }

    /// A matrix binary's body: run with the parsed flags, print the
    /// report, and under `--check` print the verdict (exit 1 on failure).
    pub fn main(&self, cli: &Cli) {
        let m = self.run(cli.args);
        println!("{}", m.rendered);
        if cli.check {
            match self.check(&m) {
                Ok(line) => println!("{line}"),
                Err(line) => {
                    eprintln!("{line}");
                    std::process::exit(1);
                }
            }
        }
    }
}

/// The command line every matrix binary accepts:
/// `[MODE] [--seeds N] [--base-seed HEX] [--threads N] [--check]`.
/// Other flags are left to the binary.
#[derive(Clone, Debug)]
pub struct Cli {
    /// The first argument that is neither a flag nor a flag's value
    /// (the `mc` mode).
    pub mode: Option<String>,
    /// Sweep parameters, [`McArgs::default`] where not given.
    pub args: McArgs,
    /// `--check`: apply the matrix's gates.
    pub check: bool,
}

impl Cli {
    /// Parse the arguments after the program name.
    ///
    /// # Panics
    /// Panics on a missing or malformed flag value.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Cli {
        let mut cli = Cli {
            mode: None,
            args: McArgs::default(),
            check: false,
        };
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
            match a.as_str() {
                "--seeds" => cli.args.seeds = value("--seeds").parse().expect("--seeds: integer"),
                "--base-seed" => {
                    let v = value("--base-seed");
                    cli.args.base_seed = u64::from_str_radix(v.trim_start_matches("0x"), 16)
                        .expect("--base-seed: hex");
                }
                "--threads" => {
                    cli.args.threads = value("--threads").parse().expect("--threads: integer");
                }
                "--check" => cli.check = true,
                other if !other.starts_with("--") && cli.mode.is_none() => {
                    cli.mode = Some(other.to_owned());
                }
                _ => {}
            }
        }
        cli
    }
}

#[cfg(test)]
mod tests {
    use gm_adversary::AttackKind;

    use super::*;
    use crate::{ext_attack, ext_gray, mc};

    fn args(seeds: usize, threads: usize) -> McArgs {
        McArgs {
            seeds,
            base_seed: 0x70E,
            threads,
            confidence: 0.95,
        }
    }

    #[test]
    fn cells_regroup_row_major_with_seed_indexed_failures() {
        let toy = Matrix {
            name: "toy",
            rows: vec!["a", "b"],
            cols: vec!["x", "y"],
            cell: |row, col, seed| {
                assert!(!(row == "b" && col == "y" && seed % 2 == 0), "rigged");
                vec![("is_b", f64::from(u8::from(row == "b")))]
            },
            header: |a| format!("Toy: {} seeds\n", a.seeds),
            render: |c| format!("{} {} {}\n{}", c.row, c.col, c.report.completed, c.quarantined()),
            gates: vec![|_| (false, "never holds".to_owned())],
        };
        let m = toy.run(args(6, 2));
        let labels: Vec<(&str, &str)> = m.cells.iter().map(|c| (c.row, c.col)).collect();
        assert_eq!(labels, [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]);
        let rigged: Vec<(usize, u64)> = seed_stream(0x70E, 6)
            .into_iter()
            .enumerate()
            .filter(|(_, s)| s % 2 == 0)
            .collect();
        assert!(!rigged.is_empty());
        let failed: Vec<(usize, u64)> = m.cells[3].failures.iter().map(|f| (f.index, f.seed)).collect();
        assert_eq!(failed, rigged, "failure indices are seed positions");
        assert_eq!(m.total_quarantined(), rigged.len());
        assert_eq!(m.mean("b", "x", "is_b"), Some(1.0));
        assert!(m.rendered.starts_with("Toy: 6 seeds\na x 6\na y 6\nb x 6\nb y "));
        assert_eq!(
            toy.check(&m),
            Err(format!("toy --check FAILED: {} quarantined; never holds", rigged.len()))
        );
    }

    #[test]
    fn cli_takes_the_mode_from_any_position_but_never_a_flag_value() {
        let cli = Cli::parse(
            ["--seeds", "12", "report", "--base-seed", "0xAB", "--paper-scale", "--check"]
                .map(String::from),
        );
        assert_eq!(cli.mode.as_deref(), Some("report"));
        assert_eq!((cli.args.seeds, cli.args.base_seed, cli.check), (12, 0xAB, true));
    }

    #[test]
    fn real_matrices_render_identically_at_any_thread_count() {
        let declarations = [
            mc::chaos_matrix(),
            ext_attack::attack_matrix(
                &["tycoon", "fifo"],
                &[AttackKind::Honest, AttackKind::ZeroIntelligence],
            ),
            ext_gray::gray_matrix(&["tycoon", "fifo"], &["none", "slowdown"]),
        ];
        for matrix in declarations {
            let body = |threads| {
                let r = matrix.run(args(3, threads)).rendered;
                r.split_once('\n').map(|(_, rest)| rest.to_owned())
            };
            assert_eq!(body(1), body(4), "{}", matrix.name);
        }
    }
}
