//! The output check every operation passes: an independent reference run of the
//! *untransformed* module on `helix_ir::Machine`, the tree-walking interpreter that
//! shares no engine code with the bytecode image or the parallel runtime.
//!
//! A runtime result is correct when its return value equals the reference and every
//! word of the globals the original module declares, `[0, reference heap_base)`, is
//! bit-equal. The rest of memory is deliberately not compared: the transform appends
//! a demoted live-out global, which moves `heap_base` up by one word, and privatized
//! heap scratch lives in per-worker arenas that are never copied back, so a digest of
//! the whole memory differs from the reference on every correct transformed run.

use helix_ir::{FuncId, Machine, Memory, Module, Value};
use helix_runtime::RunOutput;

/// Fuel for reference runs; generous next to the daemon's profiling fuel.
const REFERENCE_FUEL: u64 = 500_000_000;

/// What the untransformed program computes.
#[derive(Clone, Debug)]
pub struct Reference {
    pub ret: Option<Value>,
    /// Memory words `[0, heap_base)`: the null word and every original global.
    pub globals: Vec<Value>,
}

impl Reference {
    /// Runs `entry` of `module` on the tree-walking interpreter.
    pub fn compute(module: &Module, entry: FuncId) -> Result<Reference, String> {
        let mut machine = Machine::new(module);
        machine.set_fuel(REFERENCE_FUEL);
        let ret = machine
            .call(entry, &[])
            .map_err(|e| format!("reference run failed: {e}"))?;
        let memory = machine.memory();
        let globals = memory.words()[..memory.heap_base() as usize].to_vec();
        Ok(Reference { ret, globals })
    }

    /// The return value as the daemon formats it.
    pub fn formatted(&self) -> String {
        self.ret
            .map_or_else(|| "none".to_string(), helix_service::protocol::format_value)
    }

    /// Checks a run's return value alone (runs that do not capture memory).
    pub fn check_return(&self, ret: Option<Value>) -> Result<(), String> {
        if same_option(self.ret, ret) {
            Ok(())
        } else {
            Err(format!("return value {ret:?}, reference {:?}", self.ret))
        }
    }

    /// Checks a parallel run made with `with_capture_memory(true)`.
    pub fn check_output(&self, out: RunOutput) -> Result<(), String> {
        match (out.result, out.memory) {
            (Ok(ret), Some(memory)) => self.check(ret, &memory),
            (Ok(_), None) => Err("no memory captured".to_string()),
            (Err(e), _) => Err(e.to_string()),
        }
    }

    /// Checks one run's return value and final memory against the reference.
    pub fn check(&self, ret: Option<Value>, memory: &Memory) -> Result<(), String> {
        self.check_return(ret)?;
        let words = memory.words();
        if words.len() < self.globals.len() {
            return Err(format!(
                "memory has {} words, the original globals need {}",
                words.len(),
                self.globals.len()
            ));
        }
        match self
            .globals
            .iter()
            .zip(words)
            .position(|(want, got)| !same_bits(*want, *got))
        {
            Some(addr) => Err(format!(
                "global word {addr} is {:?}, reference {:?}",
                words[addr], self.globals[addr]
            )),
            None => Ok(()),
        }
    }
}

/// Bitwise value equality: floats by bit pattern, so `-0.0 != 0.0` and equal NaNs agree.
fn same_bits(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

fn same_option(a: Option<Value>, b: Option<Value>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => same_bits(x, y),
        (None, None) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_core::{Helix, HelixConfig};
    use helix_runtime::{ParallelExecutor, ParallelImage};

    /// `scratch_fold` privatizes a per-iteration heap allocation, so its transformed run
    /// has both traps at once: the shifted `heap_base` and an arena-backed heap.
    fn transformed_run() -> (Reference, Option<Value>, Memory) {
        let source =
            std::fs::read_to_string(helix_workloads::corpus_dir().join("scratch_fold.hir"))
                .expect("corpus program is readable");
        let module = helix_frontend::parse_and_verify(&source).expect("corpus program parses");
        let main = module
            .function_by_name("main")
            .expect("corpus program has main");
        let reference = Reference::compute(&module, main).expect("reference runs");
        let prepared = Helix::new(HelixConfig::default())
            .prepare(&module, main, &[], 50_000_000)
            .expect("prepare succeeds");
        let transformed = prepared
            .transformed
            .expect("scratch_fold has a candidate loop");
        assert!(
            !transformed.private_allocs.is_empty(),
            "the test needs a privatized heap allocation"
        );
        let pimg = ParallelImage::lower(&transformed);
        let out = ParallelExecutor::new(2)
            .with_capture_memory(true)
            .run_parallel_out(&pimg, &[]);
        let ret = out.result.expect("parallel run succeeds");
        (reference, ret, out.memory.expect("memory captured"))
    }

    #[test]
    fn accepts_a_correct_transformed_run_despite_the_memory_layout_shift() {
        let (reference, ret, memory) = transformed_run();
        assert_eq!(
            memory.heap_base(),
            reference.globals.len() as i64 + 1,
            "the demoted live-out global moves heap_base by one word"
        );
        let source =
            std::fs::read_to_string(helix_workloads::corpus_dir().join("scratch_fold.hir"))
                .expect("corpus program is readable");
        let module = helix_frontend::parse_and_verify(&source).expect("corpus program parses");
        let mut machine = Machine::new(&module);
        machine
            .call(module.function_by_name("main").expect("main"), &[])
            .expect("reference runs");
        assert_ne!(
            helix_service::memory_digest(machine.memory()),
            helix_service::memory_digest(&memory),
            "a whole-memory digest rejects this correct run"
        );
        assert_eq!(reference.check(ret, &memory), Ok(()));
    }

    #[test]
    fn rejects_a_corrupted_original_global_word() {
        let (reference, ret, mut memory) = transformed_run();
        let last = reference.globals.len() as i64 - 1;
        let corrupted = match memory.load(last).expect("global is in bounds") {
            Value::Int(i) => Value::Int(i ^ 1),
            Value::Float(f) => Value::Float(-f - 1.0),
        };
        memory.store(last, corrupted).expect("global is in bounds");
        let err = reference
            .check(ret, &memory)
            .expect_err("corruption is caught");
        assert!(err.contains(&format!("global word {last}")), "{err}");
    }

    #[test]
    fn rejects_a_wrong_return_value() {
        let (reference, ret, memory) = transformed_run();
        let wrong = match ret {
            Some(Value::Int(i)) => Some(Value::Int(i.wrapping_add(1))),
            Some(Value::Float(f)) => Some(Value::Float(f + 1.0)),
            None => Some(Value::Int(0)),
        };
        let err = reference
            .check(wrong, &memory)
            .expect_err("wrong value is caught");
        assert!(err.starts_with("return value"), "{err}");
    }
}
