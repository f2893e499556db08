//! The native engine: emitted C, actually compiled and executed.
//!
//! Both technique crates emit the paper's C output; this module closes
//! the loop at runtime. The crate's one engine constructor compiles
//! the interpreted twin — for [`Engine::Native`] and for
//! [`build_native`]'s other flavors alike — and hands it here. This
//! module keeps only the native steps: emit the twin's C translation
//! unit (`codegen_c::emit_native`), name its artifact, invoke the host
//! C compiler (`cc -shared -fPIC -O2`), `dlopen` the shared object,
//! and wrap both in a [`UnitDelaySimulator`] whose vectors run as
//! machine code.
//!
//! # Caller-owned state
//!
//! The emitted C owns no state: it is one function per compile-time
//! level segment over an arena the caller passes in, and one exported
//! driver, `uds_run(s, pi, tick, ctx)`, that calls them in order. The
//! twin's arena is that state — each vector the wrapper latches the
//! twin's tracked finals and runs `uds_run` over the twin's arena, so
//! clones, seeding (including a fallback's hand-off state), reset, and
//! history readback all work on the twin with no copy in or out. With
//! nothing shared inside the object, any number of simulators (the
//! `--jobs` shards included) call one loaded library concurrently,
//! without a lock. The profiled path makes the same call with a `tick`
//! that reports each finished block to a [`uds_netlist::LevelTimer`].
//!
//! # Artifact cache
//!
//! Compiled objects land in [`cache_dir`] (`$UDS_NATIVE_CACHE`, or
//! `uds-native-cache` under the system temp dir) named
//! `{netlist_hash:016x}-{flavor}[-mon]-w{bits}-run.so`, where the hash
//! is the same canonical-netlist FNV the serve LRU keys on
//! ([`crate::cache::netlist_hash`]) and `-mon` marks a twin that
//! monitors every net (the activity profiler's). A fresh process finds
//! the artifact on disk and skips the `cc` invocation entirely; within
//! a process a registry loads each path once and runs `cc` once per
//! artifact, however many builds ask for it concurrently.
//! Cache traffic is reported through the build probe as the monotonic
//! counters `native.cache.memory_hit`, `native.cache.disk_hit`, and
//! `native.cache.compile`.
//!
//! # Degradation
//!
//! Every toolchain problem — no `cc` on `PATH`, a compile error, a
//! `dlopen` failure — is a typed [`SimErrorKind::Toolchain`] (exit
//! code 8 in the CLI), which the guarded fallback chain treats like
//! any other compile failure: the run degrades to the interpreted
//! engines and still exits 0.

// SimError deliberately carries full context and only travels on cold
// failure paths; see guard.rs for the same trade.
#![allow(clippy::result_large_err)]

use uds_netlist::{Netlist, Probe, ResourceLimits};

use crate::error::{SimError, SimErrorKind, SimPhase};
use crate::{Engine, UnitDelaySimulator, WordWidth};

/// A toolchain failure attributed to the native engine.
pub(crate) fn toolchain_error(message: impl Into<String>) -> SimError {
    SimError::new(
        SimErrorKind::Toolchain {
            message: message.into(),
        },
        SimPhase::Compile,
    )
    .with_engine(Engine::Native)
}

/// Builds a native simulator for `flavor` (the engine whose emitted C
/// is compiled): [`Engine::PcSet`] or any parallel-family engine.
/// [`Engine::Native`] itself maps to the pt+trim parallel program —
/// the default chain head. `word` selects the parallel arena width;
/// the PC-set emitter is always 64-bit.
///
/// # Errors
///
/// Structural and budget failures surface exactly as the interpreted
/// twin would report them; toolchain failures (no compiler, compile
/// error, load error) are [`SimErrorKind::Toolchain`].
pub fn build_native(
    netlist: &Netlist,
    flavor: Engine,
    word: WordWidth,
    limits: &ResourceLimits,
    probe: &dyn Probe,
) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
    crate::simulator::build_engine(netlist, flavor, true, word, false, limits, probe)
}

pub(crate) use imp::load;

/// `true` when the host C compiler (`$UDS_CC`, default `cc`) answers
/// `--version` — probed once per process. Tests and benches use this
/// to skip with a visible notice instead of failing on toolchain-free
/// hosts.
pub fn compiler_available() -> bool {
    imp::compiler_available()
}

/// The on-disk artifact cache directory: `$UDS_NATIVE_CACHE` when set,
/// otherwise `uds-native-cache` under the system temp dir.
pub fn cache_dir() -> std::path::PathBuf {
    match std::env::var_os("UDS_NATIVE_CACHE") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join("uds-native-cache"),
    }
}

#[cfg(unix)]
mod imp {
    use std::collections::HashMap;
    use std::ffi::CString;
    use std::os::raw::c_void;
    use std::path::{Path, PathBuf};
    use std::process::Command;
    use std::sync::{Mutex, OnceLock};

    use uds_netlist::{LevelProfile, LevelSegment, LevelTimer, NetId, Netlist, Probe};
    use uds_parallel::{Optimization, ParallelSim, Word};
    use uds_pcset::PcSetSimulator;

    use super::{cache_dir, toolchain_error};
    use crate::cache::netlist_hash;
    use crate::error::SimError;
    use crate::simulator::Twin;
    use crate::UnitDelaySimulator;

    /// Names the emitted entry points in every artifact file name, so a
    /// cache directory shared with a build whose emitter exported other
    /// symbols never hands this one an object it cannot drive.
    const ARTIFACT_ABI: &str = "run";

    /// The raw loader interface. glibc ships `dlopen` in libc proper,
    /// so no link flags are needed; the declarations stay local to keep
    /// the workspace dependency-free.
    mod dl {
        use std::os::raw::{c_char, c_int, c_void};

        pub const RTLD_NOW: c_int = 2;

        extern "C" {
            pub fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
            pub fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
            pub fn dlerror() -> *mut c_char;
        }
    }

    /// The last loader error as text (clears the error state).
    fn dl_error() -> String {
        // Safety: dlerror returns a static, thread-local buffer or null.
        unsafe {
            let msg = dl::dlerror();
            if msg.is_null() {
                "unknown dlopen error".to_owned()
            } else {
                std::ffi::CStr::from_ptr(msg).to_string_lossy().into_owned()
            }
        }
    }

    /// The emitted entry point, generic over the word type:
    /// `uds_run(word *restrict s, const word *restrict pi, tick, ctx)`.
    /// It touches nothing but `s` and `pi`, so calls into one loaded
    /// library from any number of threads need no lock.
    type Run = unsafe extern "C" fn(*mut c_void, *const c_void, Option<Tick>, *mut c_void);

    /// The profiling hook `uds_run` calls after each level block.
    type Tick = extern "C" fn(*mut c_void, u32);

    /// Where `uds_run`'s tick lands during a profiled vector.
    struct Profiled<'a, 'p> {
        timer: &'a mut LevelTimer<'p>,
        segments: &'a [LevelSegment],
    }

    /// Credits level block `index` (just finished) to its level.
    extern "C" fn tick(ctx: *mut c_void, index: u32) {
        // Safety: `NativeSim::step` passes a `Profiled` it exclusively
        // borrows for the whole `uds_run` call, and only with this tick.
        let profiled = unsafe { &mut *ctx.cast::<Profiled<'_, '_>>() };
        // A panic cannot unwind out of a C caller, so no indexing here.
        let Some(segment) = profiled.segments.get(index as usize) else {
            return;
        };
        profiled.timer.segment(
            segment.level,
            segment.word_ops,
            segment.gate_evals,
            segment.bytes_touched_est,
        );
    }

    /// Loads the artifact at `path` and binds its `uds_run`. The handle
    /// is never `dlclose`d: the process-wide registry keeps every
    /// loaded artifact alive, which is exactly the amortization a
    /// long-lived daemon wants.
    fn open(path: &Path) -> Result<Run, SimError> {
        use std::os::unix::ffi::OsStrExt;
        let cpath = CString::new(path.as_os_str().as_bytes())
            .map_err(|_| toolchain_error("artifact path contains a NUL byte"))?;
        // Safety: dlopen/dlsym on a path we compiled; the symbol name is
        // a NUL-terminated literal, and the emitter fixes `uds_run`'s
        // signature to `Run`.
        unsafe {
            dl::dlerror();
            let handle = dl::dlopen(cpath.as_ptr(), dl::RTLD_NOW);
            if handle.is_null() {
                return Err(toolchain_error(format!(
                    "dlopen of {} failed: {}",
                    path.display(),
                    dl_error()
                )));
            }
            let run = dl::dlsym(handle, c"uds_run".as_ptr());
            if run.is_null() {
                return Err(toolchain_error(format!(
                    "{} does not export `uds_run`: {}",
                    path.display(),
                    dl_error()
                )));
            }
            Ok(std::mem::transmute::<*mut c_void, Run>(run))
        }
    }

    /// One loaded library per artifact path, process-wide, so each
    /// artifact is `dlopen`ed once and `cc` runs once per artifact even
    /// under concurrent builds.
    fn registry() -> &'static Mutex<HashMap<PathBuf, Run>> {
        static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Run>>> = OnceLock::new();
        REGISTRY.get_or_init(Mutex::default)
    }

    fn compiler() -> String {
        std::env::var("UDS_CC").unwrap_or_else(|_| "cc".to_owned())
    }

    pub fn compiler_available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            Command::new(compiler())
                .arg("--version")
                .output()
                .map(|out| out.status.success())
                .unwrap_or(false)
        })
    }

    /// Compiles `source` into `dest` atomically: write the C and the
    /// object under temp names, `rename` into place, so a concurrent
    /// process never observes a half-written artifact.
    fn compile_so(source: &str, dest: &Path) -> Result<(), SimError> {
        let dir = dest.parent().expect("artifact paths live in the cache dir");
        std::fs::create_dir_all(dir)
            .map_err(|e| toolchain_error(format!("cannot create {}: {e}", dir.display())))?;
        let stem = dest
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("artifact names are ascii");
        let pid = std::process::id();
        let c_path = dir.join(format!(".{stem}.{pid}.c"));
        let so_tmp = dir.join(format!(".{stem}.{pid}.so"));
        let cleanup = || {
            let _ = std::fs::remove_file(&c_path);
            let _ = std::fs::remove_file(&so_tmp);
        };
        std::fs::write(&c_path, source)
            .map_err(|e| toolchain_error(format!("cannot write {}: {e}", c_path.display())))?;
        let cc = compiler();
        let output = Command::new(&cc)
            .args(["-shared", "-fPIC", "-O2", "-o"])
            .arg(&so_tmp)
            .arg(&c_path)
            .output();
        let output = match output {
            Ok(output) => output,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                cleanup();
                return Err(toolchain_error(format!(
                    "no C compiler: `{cc}` is not on PATH (set $UDS_CC to override)"
                )));
            }
            Err(e) => {
                cleanup();
                return Err(toolchain_error(format!("cannot run `{cc}`: {e}")));
            }
        };
        if !output.status.success() {
            let stderr = String::from_utf8_lossy(&output.stderr);
            let excerpt: Vec<&str> = stderr.lines().take(8).collect();
            cleanup();
            return Err(toolchain_error(format!(
                "`{cc}` failed ({}): {}",
                output.status,
                excerpt.join("; ")
            )));
        }
        let renamed = std::fs::rename(&so_tmp, dest);
        let _ = std::fs::remove_file(&c_path);
        renamed.map_err(|e| {
            let _ = std::fs::remove_file(&so_tmp);
            toolchain_error(format!("cannot move artifact into {}: {e}", dest.display()))
        })
    }

    /// The loaded library for `path`, from (in order) the in-process
    /// registry, the on-disk artifact cache, or a fresh `cc` run over
    /// `source`. Reports which tier answered through `probe`.
    fn get_or_load(path: &Path, source: &str, probe: &dyn Probe) -> Result<Run, SimError> {
        // The registry lock is held across compile: a daemon taking
        // many concurrent requests for one netlist must run `cc` once,
        // not once per worker.
        let mut libs = registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(&run) = libs.get(path) {
            probe.count("native.cache.memory_hit", 1);
            return Ok(run);
        }
        if path.exists() {
            probe.count("native.cache.disk_hit", 1);
        } else {
            compile_so(source, path)?;
            probe.count("native.cache.compile", 1);
        }
        let run = open(path)?;
        libs.insert(path.to_path_buf(), run);
        Ok(run)
    }

    fn flavor_key(optimization: Optimization) -> &'static str {
        match optimization {
            Optimization::None => "par-none",
            Optimization::Trimming => "par-trim",
            Optimization::PathTracing => "par-pt",
            Optimization::PathTracingTrimming => "par-pt-trim",
            Optimization::CycleBreaking => "par-cb",
            Optimization::CycleBreakingTrimming => "par-cb-trim",
        }
    }

    /// An interpreted engine whose arena can serve as native state: the
    /// twin of a [`NativeSim`].
    trait ArenaTwin: UnitDelaySimulator + Clone + 'static {
        /// The arena word the emitted C computes on.
        type Word: Copy + Send + 'static;

        /// The `pi` word the emitted C reads for one input bit.
        fn input_word(bit: bool) -> Self::Word;

        /// Latches per-vector bookkeeping, then hands `run` the arena
        /// and the level segments the emitted blocks execute.
        fn run_with(
            &mut self,
            inputs: &[bool],
            run: impl FnOnce(&mut [Self::Word], &[LevelSegment]),
        );
    }

    impl<W: Word> ArenaTwin for ParallelSim<W> {
        type Word = W;

        fn input_word(bit: bool) -> W {
            W::splat(bit) & W::ONE
        }

        fn run_with(&mut self, inputs: &[bool], run: impl FnOnce(&mut [W], &[LevelSegment])) {
            self.simulate_vector_with(inputs, run);
        }
    }

    impl ArenaTwin for PcSetSimulator {
        type Word = u64;

        fn input_word(bit: bool) -> u64 {
            u64::from(bit).wrapping_neg()
        }

        fn run_with(&mut self, inputs: &[bool], run: impl FnOnce(&mut [u64], &[LevelSegment])) {
            self.simulate_vector_with(inputs, run);
        }
    }

    /// A twin, whose arena is the native code's state, plus its
    /// compiled level blocks. Every query reads the twin.
    #[derive(Clone)]
    struct NativeSim<T: ArenaTwin> {
        twin: T,
        run: Run,
        /// Input words, rewritten in place every vector.
        pi: Vec<T::Word>,
    }

    impl<T: ArenaTwin> NativeSim<T> {
        /// One vector through `uds_run`; a `timer` additionally hears
        /// each level block as it ends.
        fn step(&mut self, inputs: &[bool], timer: Option<&mut LevelTimer<'_>>) {
            for (word, &bit) in self.pi.iter_mut().zip(inputs) {
                *word = T::input_word(bit);
            }
            let (run, pi) = (self.run, &self.pi);
            self.twin.run_with(inputs, |arena, segments| {
                let (s, pi) = (arena.as_mut_ptr().cast(), pi.as_ptr().cast());
                // Safety: `run` was compiled from this twin's program
                // (the artifact path names netlist, flavor, width and
                // monitoring), so `arena` is its state and its word
                // type; `pi` holds one word per primary input, and
                // `run_with` checked `inputs` against that count.
                unsafe {
                    match timer {
                        None => run(s, pi, None, std::ptr::null_mut()),
                        Some(timer) => {
                            let mut profiled = Profiled { timer, segments };
                            let ctx = std::ptr::addr_of_mut!(profiled).cast();
                            run(s, pi, Some(tick), ctx);
                        }
                    }
                }
            });
        }
    }

    impl<T: ArenaTwin> UnitDelaySimulator for NativeSim<T> {
        fn engine_name(&self) -> &'static str {
            "native"
        }

        fn simulate_vector(&mut self, inputs: &[bool]) {
            self.step(inputs, None);
        }

        fn final_value(&self, net: NetId) -> bool {
            self.twin.final_value(net)
        }

        fn history(&self, net: NetId) -> Option<Vec<bool>> {
            self.twin.history(net)
        }

        fn depth(&self) -> u32 {
            self.twin.depth()
        }

        fn reset(&mut self) {
            self.twin.reset();
        }

        fn seed_stable(&mut self, stable: &[bool]) {
            self.twin.seed_stable(stable);
        }

        fn clone_box(&self) -> Box<dyn UnitDelaySimulator> {
            Box::new(self.clone())
        }

        fn for_each_toggle(&self, net: NetId, visit: &mut dyn FnMut(u32)) -> Option<u32> {
            self.twin.for_each_toggle(net, visit)
        }

        fn simulate_vector_leveled(&mut self, inputs: &[bool], profile: &mut LevelProfile) {
            self.step(inputs, Some(&mut LevelTimer::new(profile)));
        }

        fn level_static_profile(&self) -> Option<LevelProfile> {
            self.twin.level_static_profile()
        }
    }

    /// Loads `twin`'s emitted C as machine code over `twin`'s arena:
    /// emit, find or compile the artifact, `dlopen`. `monitoring` says
    /// the twin monitors every net, which changes its program and so
    /// names a distinct artifact.
    pub fn load(
        netlist: &Netlist,
        twin: Twin,
        monitoring: bool,
        probe: &dyn Probe,
    ) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
        let path = |flavor: &str, bits: u32| {
            let mon = if monitoring { "-mon" } else { "" };
            cache_dir().join(format!(
                "{:016x}-{flavor}{mon}-w{bits}-{ARTIFACT_ABI}.so",
                netlist_hash(netlist)
            ))
        };
        fn native<T: ArenaTwin, E: std::fmt::Display>(
            twin: T,
            source: Result<String, E>,
            path: &Path,
            inputs: usize,
            probe: &dyn Probe,
        ) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
            let source = source.map_err(|e| toolchain_error(format!("emit: {e}")))?;
            let run = get_or_load(path, &source, probe)?;
            let pi = vec![T::input_word(false); inputs];
            Ok(Box::new(NativeSim { twin, run, pi }))
        }
        let inputs = netlist.primary_inputs().len();
        match twin {
            Twin::PcSet(twin) => {
                let source = uds_pcset::codegen_c::emit_native(netlist, &twin);
                native(*twin, source, &path("pcset", 64), inputs, probe)
            }
            Twin::Parallel32(twin) => {
                let path = path(flavor_key(twin.optimization()), 32);
                let source = uds_parallel::codegen_c::emit_native(netlist, &twin);
                native(twin, source, &path, inputs, probe)
            }
            Twin::Parallel64(twin) => {
                let path = path(flavor_key(twin.optimization()), 64);
                let source = uds_parallel::codegen_c::emit_native(netlist, &twin);
                native(twin, source, &path, inputs, probe)
            }
        }
    }
}

#[cfg(not(unix))]
mod imp {
    use uds_netlist::{Netlist, Probe};

    use super::toolchain_error;
    use crate::error::SimError;
    use crate::simulator::Twin;
    use crate::UnitDelaySimulator;

    pub fn load(
        _netlist: &Netlist,
        _twin: Twin,
        _monitoring: bool,
        _probe: &dyn Probe,
    ) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
        Err(toolchain_error(
            "runtime loading of compiled C requires a Unix host",
        ))
    }

    pub fn compiler_available() -> bool {
        false
    }
}

/// The missing-compiler test overrides `$UDS_CC`, which every native
/// build reads live — unit tests that build a native engine hold this
/// so they cannot interleave with it.
#[cfg(test)]
pub(crate) fn env_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::TracedEventSim;
    use uds_netlist::generators::iscas::c17;
    use uds_netlist::NoopProbe;

    fn skip_notice() -> bool {
        if compiler_available() {
            return false;
        }
        eprintln!("SKIP: no C compiler on PATH; native-engine test not exercised");
        true
    }

    #[test]
    fn native_matches_the_baseline_on_c17() {
        let _env = env_lock();
        if skip_notice() {
            return;
        }
        let nl = c17();
        let mut native = build_native(
            &nl,
            Engine::Native,
            WordWidth::W32,
            &ResourceLimits::unlimited(),
            &NoopProbe,
        )
        .unwrap();
        let mut baseline = TracedEventSim::new(&nl).unwrap();
        for pattern in 0u32..32 {
            let inputs: Vec<bool> = (0..5).map(|i| pattern >> i & 1 != 0).collect();
            native.simulate_vector(&inputs);
            crate::UnitDelaySimulator::simulate_vector(&mut baseline, &inputs);
            for &po in nl.primary_outputs() {
                assert_eq!(
                    native.final_value(po),
                    baseline.final_value(po),
                    "native diverged on {pattern:05b}"
                );
            }
        }
    }

    #[test]
    fn missing_compiler_is_a_typed_toolchain_error() {
        // Point $UDS_CC at a nonexistent binary via a scoped override:
        // the error must be the toolchain class, never a panic. The
        // artifact cache would mask the compile step, so use a unique
        // cache dir.
        let _env = env_lock();
        if std::env::var_os("UDS_CC").is_some() {
            eprintln!("SKIP: $UDS_CC is set; not overriding the toolchain");
            return;
        }
        let dir = std::env::temp_dir().join(format!("uds-native-missing-{}", std::process::id()));
        std::env::set_var("UDS_NATIVE_CACHE", &dir);
        std::env::set_var("UDS_CC", "uds-no-such-compiler");
        let result = build_native(
            &c17(),
            Engine::Native,
            WordWidth::W64,
            &ResourceLimits::unlimited(),
            &NoopProbe,
        );
        std::env::remove_var("UDS_CC");
        std::env::remove_var("UDS_NATIVE_CACHE");
        let _ = std::fs::remove_dir_all(&dir);
        let err = match result {
            Ok(_) => panic!("a missing compiler cannot build"),
            Err(err) => err,
        };
        assert_eq!(err.class(), crate::FailureClass::Toolchain);
        assert!(err.to_string().contains("uds-no-such-compiler"), "{err}");
    }
}
