//! The benchmark's inputs: the 25 named programs, seeded generated programs and
//! formatting variants, and the seeded op sequences drawn over them.
//!
//! Everything here is a pure function of `--seed`. Generated programs are used as
//! drawn and never filtered by how they behave: one that fails to prepare, run or
//! check is a failed op.

use helix_gen::GenConfig;
use helix_ir::{FuncId, Module};

use crate::stats::Rng;

/// One program the system under test receives as source text.
pub struct Program {
    pub name: String,
    pub source: String,
    /// The frontend's parse of `source`, used only by the benchmark's reference run.
    pub module: Module,
    pub entry: FuncId,
}

impl Program {
    fn from_source(name: String, source: String) -> Result<Program, String> {
        let module = helix_frontend::parse_and_verify(&source)
            .map_err(|e| format!("{name}: does not parse: {e}"))?;
        let entry = module
            .function_by_name("main")
            .ok_or_else(|| format!("{name}: no main function"))?;
        Ok(Program {
            name,
            source,
            module,
            entry,
        })
    }
}

/// The 12 `corpus/*.hir` programs and the 13 SPEC stand-ins, in a fixed order.
pub fn named_programs() -> Result<Vec<Program>, String> {
    let mut programs = Vec::new();
    for path in helix_workloads::corpus_paths() {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?");
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        programs.push(Program::from_source(format!("corpus/{stem}"), source)?);
    }
    for bench in helix_workloads::all_benchmarks() {
        let (module, _) = bench.build();
        let source = helix_ir::printer::format_module(&module);
        programs.push(Program::from_source(
            format!("spec/{}", bench.name),
            source,
        )?);
    }
    if programs.len() != 25 {
        return Err(format!(
            "expected 25 named programs (12 corpus + 13 SPEC stand-ins), found {}",
            programs.len()
        ));
    }
    Ok(programs)
}

/// The program `helix_gen` generates from `seed` under the fuzzing configuration.
pub fn generated(seed: u64) -> Result<Program, String> {
    let text = helix_gen::generate(seed, &GenConfig::fuzz()).text();
    Program::from_source(format!("gen/{seed}"), text)
}

/// `source` with comment and blank lines inserted: different bytes, so a raw-text
/// cache lookup misses, but the same canonical module.
pub fn variant(source: &str, rng: &mut Rng) -> String {
    let mut lines: Vec<String> = source.lines().map(str::to_string).collect();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(lines.len() + 1);
        let line = match rng.below(3) {
            0 => String::new(),
            1 => format!("# variant {:016x}", rng.next_u64()),
            _ => format!("; note {}", rng.next_u64()),
        };
        lines.insert(at, line);
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// How many generated programs the compile-cold pool adds to the 25 named ones.
pub const COMPILE_GENERATED: usize = 100;

/// The generator seeds of the compile-cold pool: one fixed seeded draw, used like a
/// corpus, so the pool's compile costs are the same in every run and `--seed` varies
/// the pick order. A pool redrawn per seed moves `program_geomean_ms` by more than
/// its bound from one seed to the next.
pub fn compile_pool_seeds() -> Vec<u64> {
    let mut rng = Rng::new(0x0048_454c_4958, 2);
    (0..COMPILE_GENERATED).map(|_| rng.next_u64()).collect()
}

/// The endless pick sequence of exec-2w (stream 1) or compile-cold (stream 3) over a
/// pool of `n` programs.
pub fn picks(seed: u64, stream: u64, n: usize) -> impl Iterator<Item = usize> {
    let mut rng = Rng::new(seed, stream);
    std::iter::from_fn(move || Some(rng.below(n)))
}

/// One request of a serve workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeOp {
    /// A byte-identical resubmission of named program `i`: a raw-text hit.
    Hit(usize),
    /// A formatting variant of named program `i`: parse, then a canonical hit.
    Variant(usize, String),
    /// A never-seen generated program: a miss with a full prepare.
    Miss(u64),
}

impl ServeOp {
    pub fn class(&self) -> &'static str {
        match self {
            ServeOp::Hit(_) => "hit",
            ServeOp::Variant(..) => "variant",
            ServeOp::Miss(_) => "miss",
        }
    }
}

/// The hit share of serve-mixed; serve-hits sends nothing but hits.
pub const MIXED_HITS: f64 = 0.8;

/// The endless request sequence: `hits` of it raw-text hits, the rest split evenly
/// between formatting variants and misses.
pub fn serve_ops<'a>(
    seed: u64,
    named: &'a [Program],
    hits: f64,
) -> impl Iterator<Item = ServeOp> + 'a {
    let mut rng = Rng::new(seed, 4);
    std::iter::from_fn(move || {
        let roll = rng.unit();
        let i = rng.below(named.len());
        Some(if roll < hits {
            ServeOp::Hit(i)
        } else if roll < hits + (1.0 - hits) / 2.0 {
            ServeOp::Variant(i, variant(&named[i].source, &mut rng))
        } else {
            ServeOp::Miss(rng.next_u64())
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_sequence(seed: u64, named: &[Program]) -> Vec<(ServeOp, Option<String>)> {
        serve_ops(seed, named, MIXED_HITS)
            .take(200)
            .map(|op| {
                let text = match &op {
                    ServeOp::Miss(s) => Some(generated(*s).expect("generates").source),
                    _ => None,
                };
                (op, text)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_ops_and_programs() {
        let named = named_programs().expect("named programs load");
        assert_eq!(
            picks(7, 1, 25).take(500).collect::<Vec<_>>(),
            picks(7, 1, 25).take(500).collect::<Vec<_>>()
        );
        let pool = |_| -> Vec<String> {
            compile_pool_seeds()
                .into_iter()
                .map(|s| generated(s).expect("generates").source)
                .collect()
        };
        assert_eq!(pool(()), pool(()));
        assert_eq!(
            picks(7, 3, 125).take(500).collect::<Vec<_>>(),
            picks(7, 3, 125).take(500).collect::<Vec<_>>()
        );
        assert_eq!(serve_sequence(7, &named), serve_sequence(7, &named));
    }

    #[test]
    fn different_seed_different_ops_and_programs() {
        let named = named_programs().expect("named programs load");
        assert_ne!(
            picks(7, 1, 25).take(500).collect::<Vec<_>>(),
            picks(8, 1, 25).take(500).collect::<Vec<_>>()
        );
        assert_ne!(
            picks(7, 3, 125).take(500).collect::<Vec<_>>(),
            picks(8, 3, 125).take(500).collect::<Vec<_>>()
        );
        assert_ne!(serve_sequence(7, &named), serve_sequence(8, &named));
    }

    #[test]
    fn variants_keep_the_canonical_module() {
        let named = named_programs().expect("named programs load");
        let mut rng = Rng::new(3, 0);
        for p in &named {
            let v = variant(&p.source, &mut rng);
            assert_ne!(v, p.source);
            let m = helix_frontend::parse_and_verify(&v).expect("variant parses");
            assert_eq!(
                helix_core::content_hash(&m, "main"),
                helix_core::content_hash(&p.module, "main"),
                "{}",
                p.name
            );
        }
    }

    #[test]
    fn serve_mix_is_about_80_10_10() {
        let named = named_programs().expect("named programs load");
        let ops: Vec<ServeOp> = serve_ops(11, &named, MIXED_HITS).take(10_000).collect();
        let share = |c: &str| ops.iter().filter(|o| o.class() == c).count() as f64 / 1e4;
        assert!((share("hit") - 0.8).abs() < 0.02);
        assert!((share("variant") - 0.1).abs() < 0.02);
        assert!((share("miss") - 0.1).abs() < 0.02);
        assert!(serve_ops(11, &named, 1.0)
            .take(10_000)
            .all(|o| matches!(o, ServeOp::Hit(_))));
    }
}
