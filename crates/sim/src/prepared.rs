//! Prepare-once kernels (DESIGN.md §2.6.3).
//!
//! The paper's UDP loads a program into lane memory once and then
//! streams many inputs through it. [`PreparedKernel`] is the host-side
//! counterpart: the program image, its predecoded table, and — built on
//! the first run that selects [`crate::ExecBackend::Compiled`] — the
//! compiled backend's dispatch tables. [`crate::Udp::run`] executes a
//! prepared kernel; the image-taking entry points look theirs up in a
//! process-wide cache, so a program is prepared once per process
//! however many devices run it.

use crate::compiled::CompiledProgram;
use crate::pool::HostRate;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use udp_asm::{DecodedProgram, ProgramImage};

/// A program ready for repeated device runs: the image, its
/// decode-once table, and its lazily lowered compiled tables.
///
/// Building one predecodes the image and nothing more. Compilation
/// waits for the first compiled run, so registering a kernel that only
/// ever interprets (or never runs) costs no compile time; once built,
/// the compiled tables are shared by every later run and thread.
pub struct PreparedKernel {
    image: Arc<ProgramImage>,
    decoded: Arc<DecodedProgram>,
    /// `None` inside once compilation declined (the interpreter then
    /// runs; the semantics are identical either way).
    compiled: OnceLock<Option<CompiledProgram>>,
    /// Measured host time per byte of pooled runs, interpreted
    /// (`[0]`) and compiled (`[1]`); the pool weighs a call's bytes by
    /// it before starting helper threads.
    host_rates: [HostRate; 2],
}

impl PreparedKernel {
    /// Prepares `image`, predecoding it.
    pub fn new(image: Arc<ProgramImage>) -> Self {
        let decoded = Arc::new(image.predecode());
        Self::from_parts(image, decoded)
    }

    /// Prepares `image` around a caller's predecoded table. The table is shared only if its raw words
    /// are exactly `image.words`; otherwise the image is predecoded
    /// afresh. Lanes fetch from the table without re-reading memory
    /// while the code is pristine, so a table from another image would
    /// run another program.
    pub fn with_decoded(image: Arc<ProgramImage>, decoded: &Arc<DecodedProgram>) -> Self {
        if decodes_words(decoded, &image.words) {
            Self::from_parts(image, Arc::clone(decoded))
        } else {
            Self::new(image)
        }
    }

    fn from_parts(image: Arc<ProgramImage>, decoded: Arc<DecodedProgram>) -> Self {
        PreparedKernel {
            image,
            decoded,
            compiled: OnceLock::new(),
            host_rates: Default::default(),
        }
    }

    /// The program image.
    pub fn image(&self) -> &ProgramImage {
        &self.image
    }

    /// The predecoded table every lane of every run shares.
    pub fn decoded(&self) -> &Arc<DecodedProgram> {
        &self.decoded
    }

    /// The compiled tables, lowering them on first use; `None` when the
    /// compiled backend declines this program.
    pub(crate) fn compiled(&self) -> Option<&CompiledProgram> {
        self.compiled
            .get_or_init(|| CompiledProgram::compile(&self.image, &self.decoded).ok())
            .as_ref()
    }

    /// The measured host time per byte of runs on the interpreter, or
    /// — with `compiled` — on the compiled tables.
    pub(crate) fn host_rate(&self, compiled: bool) -> &HostRate {
        &self.host_rates[usize::from(compiled)]
    }
}

impl std::fmt::Debug for PreparedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let compiled = match self.compiled.get() {
            None => "pending",
            Some(None) => "declined",
            Some(Some(_)) => "ready",
        };
        f.debug_struct("PreparedKernel")
            .field("span_words", &self.image.words.len())
            .field("compiled", &compiled)
            .finish()
    }
}

/// How many prepared kernels the process-wide cache keeps. It holds the
/// whole 31-program corpus with room to spare, so callers cycling
/// through the corpus on fresh devices never thrash it.
const PREPARED_CACHE_CAPACITY: usize = 64;

/// The process-wide cache behind the image-taking entry points
/// ([`crate::Udp::try_run_data_parallel`] and
/// [`crate::Udp::try_run_data_parallel_shared`]).
pub(crate) static CACHE: KernelCache = KernelCache::new(PREPARED_CACHE_CAPACITY);

/// A bounded LRU table of prepared kernels, keyed by exact
/// [`ProgramImage`] equality (certificate included), so a kernel is
/// only ever reused for an image every run of which is a run of its
/// own.
pub(crate) struct KernelCache {
    capacity: usize,
    /// Most recently used first.
    entries: Mutex<Vec<Arc<PreparedKernel>>>,
}

impl KernelCache {
    const fn new(capacity: usize) -> Self {
        KernelCache {
            capacity,
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The cached kernel for `image`, preparing one on a miss. A
    /// caller's `decoded` table is consulted only on a miss, and shared
    /// only if it is the predecode of `image`
    /// ([`PreparedKernel::with_decoded`]).
    pub(crate) fn get(
        &self,
        image: &ProgramImage,
        decoded: Option<&Arc<DecodedProgram>>,
    ) -> Arc<PreparedKernel> {
        if let Some(kernel) = Self::touch(&mut self.lock(), image) {
            return kernel;
        }
        // Predecode outside the lock, so a miss never stalls the other
        // threads' hits.
        let image = Arc::new(image.clone());
        let kernel = Arc::new(match decoded {
            Some(d) => PreparedKernel::with_decoded(image, d),
            None => PreparedKernel::new(image),
        });
        let mut entries = self.lock();
        // Another thread may have prepared the same image meanwhile:
        // the first entry wins, so each image compiles once.
        if let Some(first) = Self::touch(&mut entries, kernel.image()) {
            return first;
        }
        entries.insert(0, Arc::clone(&kernel));
        entries.truncate(self.capacity);
        kernel
    }

    /// The entry for `image`, moved to the front; `None` on a miss.
    fn touch(
        entries: &mut [Arc<PreparedKernel>],
        image: &ProgramImage,
    ) -> Option<Arc<PreparedKernel>> {
        let i = entries.iter().position(|k| k.image() == image)?;
        entries[..=i].rotate_right(1);
        Some(Arc::clone(&entries[0]))
    }

    /// The table. Every update leaves it consistent, so a panic in
    /// another holder cannot have left it half-written.
    fn lock(&self) -> MutexGuard<'_, Vec<Arc<PreparedKernel>>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// True when `decoded` is the predecode of `words`: its raw words are
/// exactly `words`. (Both of its views are built from the same words,
/// so checking one view checks the table.)
fn decodes_words(decoded: &DecodedProgram, words: &[u32]) -> bool {
    decoded.len() == words.len()
        && decoded
            .transitions()
            .iter()
            .zip(words)
            .all(|(&(raw, _), &w)| raw == w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecBackend, Staging, Udp, UdpRunOptions, UdpRunReport};
    use udp_asm::{LayoutOptions, ProgramBuilder, ResourceCert, Target};
    use udp_isa::action::{Action, Opcode};
    use udp_isa::Reg;

    /// Emits `out` for every `a`, skips every other byte.
    fn scanner(out: u8) -> ProgramImage {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        let emit = Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, u16::from(out));
        b.labeled_arc(s, u16::from(b'a'), Target::State(s), vec![emit]);
        b.fallback_arc(s, Target::State(s), vec![]);
        b.assemble(&LayoutOptions::default()).unwrap()
    }

    fn run(kernel: &PreparedKernel, backend: ExecBackend) -> UdpRunReport {
        let opts = UdpRunOptions {
            backend,
            ..UdpRunOptions::default()
        };
        let inputs: Vec<&[u8]> = vec![b"abca", b"aa", b"b"];
        Udp::new()
            .run(kernel, &inputs, &Staging::default(), &opts)
            .unwrap()
    }

    /// The images in the table, most recently used first.
    fn order(cache: &KernelCache) -> Vec<ProgramImage> {
        cache.lock().iter().map(|k| k.image().clone()).collect()
    }

    #[test]
    fn equal_images_share_one_kernel() {
        let cache = KernelCache::new(4);
        let a = scanner(b'!');
        let first = cache.get(&a, None);
        let second = cache.get(&a.clone(), Some(&Arc::new(a.predecode())));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.lock().len(), 1);
    }

    #[test]
    fn images_differing_in_a_code_word_or_the_cert_get_their_own_entries() {
        let cache = KernelCache::new(4);
        let a = scanner(b'!');
        let mut flipped = a.clone();
        let slot = flipped
            .words
            .iter()
            .position(|&w| Action::decode(w).is_some_and(|act| act.op == Opcode::EmitB))
            .unwrap();
        flipped.words[slot] ^= 1;
        let mut certified = a.clone();
        certified.cert = Some(ResourceCert::default());
        let kernels: Vec<_> = [&a, &flipped, &certified]
            .iter()
            .map(|image| cache.get(image, None))
            .collect();
        assert_eq!(order(&cache), vec![certified, flipped, a]);
        for (i, x) in kernels.iter().enumerate() {
            for y in &kernels[i + 1..] {
                assert!(!Arc::ptr_eq(x, y));
            }
        }
    }

    #[test]
    fn overflow_evicts_the_least_recently_used() {
        let cache = KernelCache::new(3);
        let images: Vec<ProgramImage> = (b'0'..b'6').map(scanner).collect();
        for image in &images[..3] {
            cache.get(image, None);
        }
        // Touching 0 leaves 1 least recently used.
        cache.get(&images[0], None);
        cache.get(&images[3], None);
        assert_eq!(order(&cache), [3, 0, 2].map(|i| images[i].clone()));
        for image in images.iter().chain(images.iter().rev()) {
            let kernel = cache.get(image, None);
            assert_eq!(cache.lock().len(), 3);
            for backend in [ExecBackend::Interpreter, ExecBackend::Compiled] {
                let fresh = PreparedKernel::new(Arc::new(image.clone()));
                assert_eq!(run(&kernel, backend), run(&fresh, backend));
            }
        }
        assert_eq!(order(&cache), images[..3].to_vec());
    }
}
