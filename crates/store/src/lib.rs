//! # udp-store — durable content-addressed store for verified artifacts
//!
//! The paper's deployment story compiles a UDP program once and
//! dispatches it many times; this crate is the "once" half made
//! durable (DESIGN.md §11). An [`ArtifactStore`] keeps serialized
//! [`ProgramImage`]s — certificate included — on disk, keyed by a
//! SHA-256 over `(kernel source, LayoutOptions, format version)`, so a
//! service restart, a new process, or the AOT corpus pipeline can all
//! reload a verified image instead of re-assembling and re-verifying
//! it.
//!
//! Two disciplines carry over from the rest of the stack:
//!
//! * **Crash-safe writes.** An artifact is written to a temp file in
//!   the store's own `tmp/` directory, fsynced, then atomically
//!   renamed into `objects/` (and the directory fsynced). A crash at
//!   any point leaves either the old artifact, no artifact, or a stray
//!   temp file that [`ArtifactStore::open`] sweeps — never a torn
//!   object visible under its content address.
//! * **Never-panic loads.** Every load runs an integrity ladder:
//!   length → magic/version → SHA-256 checksum → typed deserialization
//!   → full re-verification with certificate re-validation
//!   (`udp_verify::revalidate_artifact`). Any rung failing yields a
//!   typed [`StoreError`], and [`ArtifactStore::get_or_build`] then
//!   walks the recovery rung: re-assemble from source → re-verify →
//!   rewrite the artifact → quarantine the kernel if re-assembly also
//!   fails. Hostile bytes in the store directory cost a rebuild, never
//!   a panic.
//!
//! The store hands out [`Artifact`]s holding an `Arc<ProgramImage>`,
//! which downstream consumers (the serve runtime's kernel registry)
//! share by `Arc`. Execution tables — the predecoded and compiled
//! forms — are a simulator concern: the consumer prepares them once
//! from the image (`udp_sim::PreparedKernel`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The store invariant (DESIGN.md §11): corruption surfaces as typed
// errors, never a panic — so no unwrap/expect outside tests.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod hash;

pub use hash::{crc32, sha256, Sha256};

use std::collections::HashMap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use udp_asm::serial::{decode_image, encode_image, FORMAT_VERSION};
use udp_asm::{parse_asm, LayoutOptions, ProgramImage};
use udp_isa::mem::BANK_WORDS;
use udp_isa::NUM_BANKS;

/// Artifact file magic.
const MAGIC: [u8; 4] = *b"UDPA";
/// Fixed header bytes before the variable sections: magic + version +
/// key.
const HEADER_BYTES: usize = 4 + 4 + 32;
/// Trailing SHA-256 checksum length.
const TRAILER_BYTES: usize = 32;
/// Cap on the embedded kernel source, bytes (the corpus' largest
/// normal form is a few hundred KB; 16 MB is far past hostile).
const MAX_SOURCE: usize = 16 << 20;

/// Content address of one artifact: SHA-256 over the kernel source,
/// the layout options, and the serialization format version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey([u8; 32]);

impl ArtifactKey {
    /// The raw digest.
    pub fn bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex form — the artifact's file name.
    pub fn hex(&self) -> String {
        hash::hex(&self.0)
    }

    /// Parses the hex form back into a key (journal replay).
    pub fn from_hex(s: &str) -> Option<ArtifactKey> {
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, b) in out.iter_mut().enumerate() {
            let hi = s.as_bytes()[i * 2];
            let lo = s.as_bytes()[i * 2 + 1];
            let nib = |c: u8| -> Option<u8> {
                match c {
                    b'0'..=b'9' => Some(c - b'0'),
                    b'a'..=b'f' => Some(c - b'a' + 10),
                    _ => None,
                }
            };
            *b = (nib(hi)? << 4) | nib(lo)?;
        }
        Some(ArtifactKey(out))
    }
}

impl fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.hex())
    }
}

/// Typed store failures — every rung of the integrity ladder has its
/// own variant so callers (and the chaos harness) can see which rung
/// caught a corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// The operation (static description).
        op: &'static str,
        /// The path involved.
        path: String,
        /// The OS error text.
        detail: String,
    },
    /// No artifact exists under this key.
    NotFound {
        /// The missing key, hex.
        key: String,
    },
    /// The file does not start with the artifact magic.
    BadMagic {
        /// The offending file.
        path: String,
    },
    /// The artifact was written by a different format version.
    BadVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build speaks.
        want: u32,
    },
    /// The file is too short to hold the section being read.
    TruncatedFile {
        /// The offending file.
        path: String,
        /// The section that ran out of bytes.
        what: &'static str,
    },
    /// The trailing SHA-256 does not match the file contents.
    Checksum {
        /// The offending file.
        path: String,
    },
    /// The key recorded inside the file differs from the requested one
    /// (a renamed or swapped object).
    KeyMismatch {
        /// The requested key, hex.
        want: String,
        /// The key embedded in the file, hex.
        found: String,
    },
    /// The image section failed typed deserialization.
    Serial {
        /// The decoder's message.
        detail: String,
    },
    /// The decoded image failed re-verification or its certificate
    /// diverged from the recomputed one.
    Revalidate {
        /// The verifier's message.
        detail: String,
    },
    /// The kernel source could not be (re-)assembled into a clean,
    /// verified image.
    SourceRejected {
        /// The parse/assembly/verification message.
        detail: String,
    },
    /// The kernel is quarantined: a previous load failed *and*
    /// re-assembly from source failed too, so the store refuses the
    /// key until an operator releases it.
    Quarantined {
        /// The quarantined key, hex.
        key: String,
        /// Why it was quarantined.
        reason: String,
    },
}

impl StoreError {
    /// Stable kebab-case name of the variant (fuzz stats, logs).
    pub fn name(&self) -> &'static str {
        match self {
            StoreError::Io { .. } => "io",
            StoreError::NotFound { .. } => "not-found",
            StoreError::BadMagic { .. } => "bad-magic",
            StoreError::BadVersion { .. } => "bad-version",
            StoreError::TruncatedFile { .. } => "truncated-file",
            StoreError::Checksum { .. } => "checksum",
            StoreError::KeyMismatch { .. } => "key-mismatch",
            StoreError::Serial { .. } => "serial",
            StoreError::Revalidate { .. } => "revalidate",
            StoreError::SourceRejected { .. } => "source-rejected",
            StoreError::Quarantined { .. } => "quarantined",
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, detail } => write!(f, "{op} {path}: {detail}"),
            StoreError::NotFound { key } => write!(f, "no artifact for key {key}"),
            StoreError::BadMagic { path } => write!(f, "{path}: not an artifact (bad magic)"),
            StoreError::BadVersion { found, want } => {
                write!(
                    f,
                    "artifact format version {found}, this build wants {want}"
                )
            }
            StoreError::TruncatedFile { path, what } => {
                write!(f, "{path}: truncated while reading {what}")
            }
            StoreError::Checksum { path } => write!(f, "{path}: checksum mismatch"),
            StoreError::KeyMismatch { want, found } => {
                write!(f, "artifact key mismatch: wanted {want}, file says {found}")
            }
            StoreError::Serial { detail } => write!(f, "image deserialization failed: {detail}"),
            StoreError::Revalidate { detail } => write!(f, "re-validation failed: {detail}"),
            StoreError::SourceRejected { detail } => {
                write!(f, "kernel source rejected: {detail}")
            }
            StoreError::Quarantined { key, reason } => {
                write!(f, "kernel {key} is quarantined: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// How [`ArtifactStore::get_or_build`] satisfied a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadOutcome {
    /// Loaded intact from disk; nothing was assembled or verified
    /// beyond the load-time re-validation.
    Hit,
    /// No artifact existed; built from source and persisted.
    Built,
    /// An artifact existed but failed the integrity ladder; rebuilt
    /// from source and rewritten. The typed reason is kept for
    /// diagnostics and the chaos harness.
    Rebuilt {
        /// The load error that triggered the recovery rung.
        why: Box<StoreError>,
    },
}

impl LoadOutcome {
    /// Stable kebab-case name (logs, AOT summaries).
    pub fn name(&self) -> &'static str {
        match self {
            LoadOutcome::Hit => "hit",
            LoadOutcome::Built => "built",
            LoadOutcome::Rebuilt { .. } => "rebuilt",
        }
    }
}

/// A store-served kernel: the verified image and enough provenance (source + layout) to journal a service
/// registration and rebuild after any future corruption.
#[derive(Clone)]
pub struct Artifact {
    /// Content address.
    pub key: ArtifactKey,
    /// The verified image, certificate attached.
    pub image: Arc<ProgramImage>,
    /// Smallest bank split whose window holds the image.
    pub banks_per_lane: usize,
    /// The kernel source (canonical `udp-asm` text form).
    pub source: String,
    /// The layout the source was assembled under.
    pub layout: LayoutOptions,
    /// How this request was satisfied.
    pub outcome: LoadOutcome,
}

/// The content-addressed on-disk artifact store.
///
/// Directory layout under the root:
///
/// ```text
/// objects/<key-hex>      one artifact per verified kernel
/// tmp/                   in-flight writes (swept at open)
/// quarantine/<key-hex>   marker files: keys whose recovery rung failed
/// ```
pub struct ArtifactStore {
    root: PathBuf,
    sync: bool,
    quarantined: Mutex<HashMap<String, String>>,
}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

fn put_u32(v: &mut Vec<u8>, x: u32) {
    v.extend_from_slice(&x.to_le_bytes());
}

/// Canonical byte form of the layout options — hashed into the key and
/// stored in the artifact so a strict load can reconstruct it.
fn layout_bytes(layout: &LayoutOptions) -> Vec<u8> {
    let mut v = Vec::with_capacity(11);
    v.extend_from_slice(&(layout.window_words as u64).to_le_bytes());
    v.push(u8::from(layout.share_actions));
    v.push(u8::from(layout.uap_attach));
    v.push(u8::from(layout.self_check));
    v
}

fn layout_from_bytes(b: &[u8]) -> Option<LayoutOptions> {
    if b.len() != 11 {
        return None;
    }
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[..8]);
    Some(LayoutOptions {
        window_words: u64::from_le_bytes(w) as usize,
        share_actions: b[8] != 0,
        uap_attach: b[9] != 0,
        self_check: b[10] != 0,
    })
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root`, with
    /// fsync-on-write enabled. Sweeps stray temp files from interrupted
    /// writes and loads the quarantine markers.
    pub fn open(root: impl AsRef<Path>) -> Result<ArtifactStore, StoreError> {
        Self::open_with(root, true)
    }

    /// [`ArtifactStore::open`] with explicit control over fsync (tests
    /// that churn hundreds of stores can turn it off; production
    /// callers should not).
    pub fn open_with(root: impl AsRef<Path>, sync: bool) -> Result<ArtifactStore, StoreError> {
        let root = root.as_ref().to_path_buf();
        for sub in ["objects", "tmp", "quarantine"] {
            let dir = root.join(sub);
            std::fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, &e))?;
        }
        // Sweep torn writes: anything still in tmp/ never made it to
        // its atomic rename, so it is garbage by construction.
        let tmp = root.join("tmp");
        if let Ok(entries) = std::fs::read_dir(&tmp) {
            for entry in entries.flatten() {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        // Quarantine markers: file name is the key hex, contents the
        // reason. Unreadable markers quarantine with a generic reason —
        // fail safe, not open.
        let mut quarantined = HashMap::new();
        let qdir = root.join("quarantine");
        if let Ok(entries) = std::fs::read_dir(&qdir) {
            for entry in entries.flatten() {
                if let Some(name) = entry.file_name().to_str() {
                    let reason = std::fs::read_to_string(entry.path())
                        .unwrap_or_else(|_| "unreadable quarantine marker".to_string());
                    quarantined.insert(name.to_string(), reason);
                }
            }
        }
        Ok(ArtifactStore {
            root,
            sync,
            quarantined: Mutex::new(quarantined),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path an artifact for `key` lives at (the chaos
    /// harness corrupts files through this).
    pub fn artifact_path(&self, key: &ArtifactKey) -> PathBuf {
        self.root.join("objects").join(key.hex())
    }

    fn lock_quarantine(&self) -> MutexGuard<'_, HashMap<String, String>> {
        self.quarantined
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The content address for `(source, layout)` under the current
    /// format version.
    pub fn key_for(source: &str, layout: &LayoutOptions) -> ArtifactKey {
        let mut h = Sha256::new();
        h.update(b"udp-artifact\x00");
        h.update(&FORMAT_VERSION.to_le_bytes());
        h.update(&layout_bytes(layout));
        h.update(source.as_bytes());
        ArtifactKey(h.finish())
    }

    /// True when an object file exists for `key` (no integrity check).
    pub fn contains(&self, key: &ArtifactKey) -> bool {
        self.artifact_path(key).exists()
    }

    /// The quarantine reason for `key`, if it is quarantined.
    pub fn is_quarantined(&self, key: &ArtifactKey) -> Option<String> {
        self.lock_quarantine().get(&key.hex()).cloned()
    }

    /// Quarantines `key`: future `get_or_build`/`load` calls refuse it
    /// with [`StoreError::Quarantined`] until released. The marker is
    /// persisted best-effort (an unwritable marker still quarantines
    /// for this process's lifetime).
    pub fn quarantine(&self, key: &ArtifactKey, reason: &str) {
        let hex = key.hex();
        let marker = self.root.join("quarantine").join(&hex);
        let _ = std::fs::write(&marker, reason);
        self.lock_quarantine().insert(hex, reason.to_string());
    }

    /// Lifts `key`'s quarantine (operator action after the kernel
    /// source is fixed).
    pub fn release_quarantine(&self, key: &ArtifactKey) {
        let hex = key.hex();
        let _ = std::fs::remove_file(self.root.join("quarantine").join(&hex));
        self.lock_quarantine().remove(&hex);
    }

    /// Strict load: reads, integrity-checks, and re-validates the
    /// artifact for `key`. No recovery — any rung failing is the typed
    /// error, which [`ArtifactStore::get_or_build`] turns into a
    /// rebuild when it has the source at hand.
    pub fn load(&self, key: &ArtifactKey) -> Result<Artifact, StoreError> {
        if let Some(reason) = self.is_quarantined(key) {
            return Err(StoreError::Quarantined {
                key: key.hex(),
                reason,
            });
        }
        let path = self.artifact_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NotFound { key: key.hex() })
            }
            Err(e) => return Err(io_err("read", &path, &e)),
        };
        let pathstr = path.display().to_string();
        // Rung 1: length — the file must hold header + trailer at all.
        if bytes.len() < HEADER_BYTES + TRAILER_BYTES {
            return Err(StoreError::TruncatedFile {
                path: pathstr,
                what: "header",
            });
        }
        // Rung 2: magic and format version.
        if bytes[..4] != MAGIC {
            return Err(StoreError::BadMagic { path: pathstr });
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != FORMAT_VERSION {
            return Err(StoreError::BadVersion {
                found: version,
                want: FORMAT_VERSION,
            });
        }
        // Rung 3: whole-file checksum. Everything after this rung can
        // trust the bytes are the ones the writer hashed.
        let body_end = bytes.len() - TRAILER_BYTES;
        if sha256(&bytes[..body_end])[..] != bytes[body_end..] {
            return Err(StoreError::Checksum { path: pathstr });
        }
        // Rung 4: the embedded key must be the requested one.
        let mut file_key = [0u8; 32];
        file_key.copy_from_slice(&bytes[8..40]);
        if file_key != key.0 {
            return Err(StoreError::KeyMismatch {
                want: key.hex(),
                found: hash::hex(&file_key),
            });
        }
        // Sections: layout, source, image — each length-prefixed.
        let body = &bytes[HEADER_BYTES..body_end];
        let mut pos = 0usize;
        let mut section = |what: &'static str, cap: usize| -> Result<&[u8], StoreError> {
            if body.len() - pos < 4 {
                return Err(StoreError::TruncatedFile {
                    path: path.display().to_string(),
                    what,
                });
            }
            let len = u32::from_le_bytes([body[pos], body[pos + 1], body[pos + 2], body[pos + 3]])
                as usize;
            pos += 4;
            if len > cap || len > body.len() - pos {
                return Err(StoreError::TruncatedFile {
                    path: path.display().to_string(),
                    what,
                });
            }
            let s = &body[pos..pos + len];
            pos += len;
            Ok(s)
        };
        let layout = layout_from_bytes(section("layout options", 64)?).ok_or_else(|| {
            StoreError::TruncatedFile {
                path: path.display().to_string(),
                what: "layout options",
            }
        })?;
        let source = String::from_utf8_lossy(section("kernel source", MAX_SOURCE)?).into_owned();
        let image_bytes = section("image", usize::MAX)?;
        if pos != body.len() {
            return Err(StoreError::TruncatedFile {
                path: path.display().to_string(),
                what: "trailing section bytes",
            });
        }
        // Rung 5: typed deserialization.
        let image = decode_image(image_bytes).map_err(|e| StoreError::Serial {
            detail: e.to_string(),
        })?;
        let span = image.stats.span_words;
        if span > NUM_BANKS * BANK_WORDS || span < image.words.len() {
            return Err(StoreError::Serial {
                detail: format!(
                    "span {span} words is inconsistent ({} image words)",
                    image.words.len()
                ),
            });
        }
        let banks_per_lane = span.div_ceil(BANK_WORDS).clamp(1, NUM_BANKS);
        // Rung 6: full re-verification + certificate re-validation
        // against the decoded graph.
        udp_verify::revalidate_artifact(
            &image,
            &udp_verify::VerifyOptions::with_banks(banks_per_lane),
        )
        .map_err(|e| StoreError::Revalidate {
            detail: e.to_string(),
        })?;
        Ok(Artifact {
            key: *key,
            image: Arc::new(image),
            banks_per_lane,
            source,
            layout,
            outcome: LoadOutcome::Hit,
        })
    }

    /// The workhorse: returns the verified artifact for
    /// `(source, layout)`, loading it from disk when intact, building
    /// and persisting it when absent, and walking the recovery rung —
    /// re-assemble → re-verify → rewrite → quarantine — when the
    /// on-disk copy fails any integrity check. Never panics; every
    /// failure is a typed [`StoreError`].
    pub fn get_or_build(
        &self,
        source: &str,
        layout: &LayoutOptions,
    ) -> Result<Artifact, StoreError> {
        let key = Self::key_for(source, layout);
        if let Some(reason) = self.is_quarantined(&key) {
            return Err(StoreError::Quarantined {
                key: key.hex(),
                reason,
            });
        }
        let why = match self.load(&key) {
            Ok(artifact) => return Ok(artifact), // outcome already Hit
            Err(StoreError::NotFound { .. }) => None,
            Err(e) => Some(e),
        };
        // Recovery rung (or first build): re-assemble from source.
        match self.build_from_source(source, layout) {
            Ok((image, banks_per_lane)) => {
                self.write_artifact(&key, source, layout, &image)?;
                Ok(Artifact {
                    key,
                    image: Arc::new(image),
                    banks_per_lane,
                    source: source.to_string(),
                    layout: layout.clone(),
                    outcome: match why {
                        None => LoadOutcome::Built,
                        Some(e) => LoadOutcome::Rebuilt { why: Box::new(e) },
                    },
                })
            }
            Err(build_err) => match why {
                // A corrupt artifact *and* a source that no longer
                // assembles: quarantine the kernel so the service
                // refuses it fast instead of rebuilding forever.
                Some(load_err) => {
                    let reason =
                        format!("load failed ({load_err}); re-assembly failed ({build_err})");
                    self.quarantine(&key, &reason);
                    Err(StoreError::Quarantined {
                        key: key.hex(),
                        reason,
                    })
                }
                // Nothing on disk: a plain bad source is just refused.
                None => Err(build_err),
            },
        }
    }

    /// Parse → assemble → verify → attach the certificate. The one
    /// path every image takes into the store.
    fn build_from_source(
        &self,
        source: &str,
        layout: &LayoutOptions,
    ) -> Result<(ProgramImage, usize), StoreError> {
        let builder = parse_asm(source).map_err(|e| StoreError::SourceRejected {
            detail: format!("parse: {e}"),
        })?;
        let mut image = builder
            .assemble(layout)
            .map_err(|e| StoreError::SourceRejected {
                detail: format!("assemble: {e}"),
            })?;
        if !image.executable {
            return Err(StoreError::SourceRejected {
                detail: "size-model-only layouts (uap_attach) cannot be stored".into(),
            });
        }
        let span = image.stats.span_words;
        if span > NUM_BANKS * BANK_WORDS {
            return Err(StoreError::SourceRejected {
                detail: format!("span {span} words exceeds the device"),
            });
        }
        let banks_per_lane = span.div_ceil(BANK_WORDS).clamp(1, NUM_BANKS);
        let report = udp_verify::verify_image(
            &image,
            &udp_verify::VerifyOptions::with_banks(banks_per_lane),
        );
        if !report.is_clean() {
            return Err(StoreError::SourceRejected {
                detail: format!("verification: {report}"),
            });
        }
        image.cert = report.cert;
        Ok((image, banks_per_lane))
    }

    /// Crash-safe write: temp file in `tmp/` → flush → fsync → atomic
    /// rename into `objects/` → fsync the directory.
    fn write_artifact(
        &self,
        key: &ArtifactKey,
        source: &str,
        layout: &LayoutOptions,
        image: &ProgramImage,
    ) -> Result<(), StoreError> {
        let image_bytes = encode_image(image);
        let lay = layout_bytes(layout);
        let mut body = Vec::with_capacity(
            HEADER_BYTES + 12 + lay.len() + source.len() + image_bytes.len() + TRAILER_BYTES,
        );
        body.extend_from_slice(&MAGIC);
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&key.0);
        put_u32(&mut body, lay.len() as u32);
        body.extend_from_slice(&lay);
        put_u32(&mut body, source.len() as u32);
        body.extend_from_slice(source.as_bytes());
        put_u32(&mut body, image_bytes.len() as u32);
        body.extend_from_slice(&image_bytes);
        let digest = sha256(&body);
        body.extend_from_slice(&digest);

        let tmp_path =
            self.root
                .join("tmp")
                .join(format!("{}.{:x}", key.hex(), std::process::id()));
        let mut f =
            std::fs::File::create(&tmp_path).map_err(|e| io_err("create", &tmp_path, &e))?;
        f.write_all(&body)
            .and_then(|()| f.flush())
            .map_err(|e| io_err("write", &tmp_path, &e))?;
        if self.sync {
            f.sync_all().map_err(|e| io_err("fsync", &tmp_path, &e))?;
        }
        drop(f);
        let final_path = self.artifact_path(key);
        std::fs::rename(&tmp_path, &final_path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp_path);
            io_err("rename", &final_path, &e)
        })?;
        if self.sync {
            // Persist the rename itself: fsync the objects directory.
            if let Ok(dir) = std::fs::File::open(self.root.join("objects")) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udp_asm::{emit_asm, ProgramBuilder, Target};
    use udp_isa::action::{Action, Opcode};
    use udp_isa::Reg;

    fn sample_source() -> String {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        b.labeled_arc(
            s,
            b'a' as u16,
            Target::State(s),
            vec![Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, b'x' as u16)],
        );
        b.fallback_arc(s, Target::Halt, vec![]);
        emit_asm(&b)
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "udp-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn build_then_hit_round_trips_bytes() {
        let root = temp_root("roundtrip");
        let store = ArtifactStore::open_with(&root, false).unwrap();
        let src = sample_source();
        let layout = LayoutOptions::default();

        let built = store.get_or_build(&src, &layout).unwrap();
        assert_eq!(built.outcome, LoadOutcome::Built);
        assert!(built.image.cert.is_some(), "store must attach the cert");

        let hit = store.get_or_build(&src, &layout).unwrap();
        assert_eq!(hit.outcome, LoadOutcome::Hit);
        assert_eq!(
            encode_image(&built.image),
            encode_image(&hit.image),
            "reloaded artifact must be byte-identical"
        );
        assert_eq!(hit.source, src);
        assert_eq!(hit.layout, layout);
        assert_eq!(hit.banks_per_lane, built.banks_per_lane);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corruption_is_typed_and_recovered() {
        let root = temp_root("corrupt");
        let store = ArtifactStore::open_with(&root, false).unwrap();
        let src = sample_source();
        let layout = LayoutOptions::default();
        let built = store.get_or_build(&src, &layout).unwrap();
        let path = store.artifact_path(&built.key);

        // Flip a byte in the image body: checksum rung catches it.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load(&built.key),
            Err(StoreError::Checksum { .. })
        ));

        // get_or_build walks the recovery rung and rewrites.
        let rebuilt = store.get_or_build(&src, &layout).unwrap();
        assert!(matches!(rebuilt.outcome, LoadOutcome::Rebuilt { .. }));
        assert_eq!(encode_image(&rebuilt.image), encode_image(&built.image));
        // And the rewritten artifact loads strictly again.
        assert!(store.load(&built.key).is_ok());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn truncation_and_magic_rungs_are_typed() {
        let root = temp_root("trunc");
        let store = ArtifactStore::open_with(&root, false).unwrap();
        let src = sample_source();
        let layout = LayoutOptions::default();
        let built = store.get_or_build(&src, &layout).unwrap();
        let path = store.artifact_path(&built.key);
        let full = std::fs::read(&path).unwrap();

        std::fs::write(&path, &full[..10]).unwrap();
        assert!(matches!(
            store.load(&built.key),
            Err(StoreError::TruncatedFile { .. })
        ));

        std::fs::write(&path, &full[..full.len() - 1]).unwrap();
        assert!(matches!(
            store.load(&built.key),
            Err(StoreError::Checksum { .. })
        ));

        let mut bad_magic = full.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(
            store.load(&built.key),
            Err(StoreError::BadMagic { .. })
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tampered_cert_is_caught_by_revalidation() {
        let root = temp_root("cert");
        let store = ArtifactStore::open_with(&root, false).unwrap();
        let src = sample_source();
        let layout = LayoutOptions::default();
        let built = store.get_or_build(&src, &layout).unwrap();

        // Re-encode the artifact with a loosened certificate and a
        // *valid* outer checksum — only cert re-validation can catch it.
        let mut image = (*built.image).clone();
        if let Some(cert) = &mut image.cert {
            cert.base_cycles = cert.base_cycles.wrapping_add(10);
        }
        store
            .write_artifact(&built.key, &src, &layout, &image)
            .unwrap();
        assert!(matches!(
            store.load(&built.key),
            Err(StoreError::Revalidate { .. })
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unassemblable_source_after_corruption_quarantines() {
        let root = temp_root("quarantine");
        let store = ArtifactStore::open_with(&root, false).unwrap();
        let bogus = "this is not a udp program";
        let layout = LayoutOptions::default();
        let key = ArtifactStore::key_for(bogus, &layout);

        // Plant a corrupt artifact at the bogus key, so the load fails
        // and the recovery rung must try (and fail) to re-assemble.
        std::fs::write(store.artifact_path(&key), b"garbage").unwrap();
        match store.get_or_build(bogus, &layout) {
            Err(StoreError::Quarantined { reason, .. }) => {
                assert!(reason.contains("re-assembly failed"), "{reason}");
            }
            Ok(a) => panic!("expected quarantine, got outcome {:?}", a.outcome),
            Err(e) => panic!("expected quarantine, got {e:?}"),
        }
        // Subsequent calls refuse fast.
        assert!(matches!(
            store.get_or_build(bogus, &layout),
            Err(StoreError::Quarantined { .. })
        ));
        // The marker survives a store reopen.
        drop(store);
        let store = ArtifactStore::open_with(&root, false).unwrap();
        assert!(store.is_quarantined(&key).is_some());
        store.release_quarantine(&key);
        assert!(store.is_quarantined(&key).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tmp_files_are_swept_at_open() {
        let root = temp_root("torn");
        {
            let store = ArtifactStore::open_with(&root, false).unwrap();
            let _ = store; // dirs exist now
        }
        let stray = root.join("tmp").join("deadbeef.1234");
        std::fs::write(&stray, b"half a write").unwrap();
        let _store = ArtifactStore::open_with(&root, false).unwrap();
        assert!(!stray.exists(), "open must sweep torn writes");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn key_is_sensitive_to_source_layout_and_hexes_round_trip() {
        let a = ArtifactStore::key_for("x", &LayoutOptions::default());
        let b = ArtifactStore::key_for("y", &LayoutOptions::default());
        let c = ArtifactStore::key_for("x", &LayoutOptions::with_banks(2));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(ArtifactKey::from_hex(&a.hex()), Some(a));
        assert_eq!(ArtifactKey::from_hex("zz"), None);
    }
}
