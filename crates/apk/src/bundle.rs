//! On-disk app bundles.
//!
//! A bundle is the repository's stand-in for an `.apk` file: a directory
//! holding the program as `.jil` text plus a line-oriented
//! `manifest.txt`. Corpora can be exported once and re-analyzed without
//! the generator, shared between machines, or inspected by hand.
//!
//! ```text
//! com.gen.app0001/
//!   app.jil        # the IR (see gdroid-ir::text)
//!   manifest.txt   # package/category/seed/components/permissions
//! ```

use crate::app::{App, Category};
use crate::manifest::{Component, ComponentKind, IntentFilter, Manifest, Permission};
use gdroid_ir::text::{parse_program, print_program};
use std::io;
use std::path::Path;

/// Serializes a manifest to the `manifest.txt` format.
pub fn manifest_to_text(app: &App) -> String {
    let mut out = String::new();
    write_manifest(app, &mut out).expect("writing to a String cannot fail");
    out
}

/// Writes [`manifest_to_text`]'s text into `out`.
pub fn write_manifest(app: &App, out: &mut impl std::fmt::Write) -> std::fmt::Result {
    writeln!(out, "package {}", app.manifest.package)?;
    writeln!(out, "category {}", app.category.name())?;
    writeln!(out, "seed {}", app.seed)?;
    for c in &app.manifest.components {
        let class = app.program.interner.resolve(c.class);
        let main =
            if c.intent_filters.iter().any(|f| f.action.ends_with("MAIN")) { " MAIN" } else { "" };
        let exported = if c.exported { "exported" } else { "internal" };
        writeln!(out, "component {class} {:?} {exported}{main}", c.kind)?;
    }
    for p in &app.manifest.permissions {
        writeln!(out, "permission {}", p.manifest_name())?;
    }
    Ok(())
}

/// Errors from bundle IO/parsing.
#[derive(Debug)]
pub enum BundleError {
    /// Filesystem failure.
    Io(io::Error),
    /// `.jil` parse failure.
    Jil(gdroid_ir::text::ParseError),
    /// Malformed manifest line.
    Manifest(String),
    /// Parsed, but structurally invalid IR (see [`gdroid_ir::validate`]).
    Invalid(String),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Io(e) => write!(f, "bundle io error: {e}"),
            BundleError::Jil(e) => write!(f, "bundle jil error: {e}"),
            BundleError::Manifest(m) => write!(f, "bundle manifest error: {m}"),
            BundleError::Invalid(m) => write!(f, "bundle holds invalid IR: {m}"),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<io::Error> for BundleError {
    fn from(e: io::Error) -> Self {
        BundleError::Io(e)
    }
}

/// Writes an app as a bundle directory (created if needed).
pub fn save_bundle(app: &App, dir: &Path) -> Result<(), BundleError> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("app.jil"), print_program(&app.program))?;
    std::fs::write(dir.join("manifest.txt"), manifest_to_text(app))?;
    Ok(())
}

/// The two files of a bundle, read but not yet parsed.
///
/// Loading is split into read → parse so a caller can act on the *bytes*
/// first: [`save_bundle`] writes `print_program` and `manifest_to_text`
/// verbatim, so the bytes of a bundle it wrote are the app's canonical
/// content, and a content-addressed lookup (the serving layer's result
/// cache) can be answered before the JIL parser and the validator — by far
/// the larger share of [`load_bundle`] — have run.
#[derive(Clone, Debug)]
pub struct BundleText {
    /// Contents of `app.jil`.
    pub jil: String,
    /// Contents of `manifest.txt`.
    pub manifest: String,
}

/// Reads a bundle directory's files without parsing them. Fails on a
/// missing or non-UTF-8 file.
pub fn read_bundle(dir: &Path) -> Result<BundleText, BundleError> {
    Ok(BundleText {
        jil: std::fs::read_to_string(dir.join("app.jil"))?,
        manifest: std::fs::read_to_string(dir.join("manifest.txt"))?,
    })
}

impl BundleText {
    /// The package the manifest declares, read from the manifest alone
    /// (empty when it declares none, as in the parsed [`App`]).
    pub fn package(&self) -> &str {
        let mut package = "";
        for line in self.manifest.lines() {
            let mut parts = line.split_whitespace();
            if parts.next() == Some("package") {
                package = parts.next().unwrap_or(package);
            }
        }
        package
    }
}

/// Parses and validates a read bundle into an [`App`].
pub fn parse_bundle(text: &BundleText) -> Result<App, BundleError> {
    let program = parse_program(&text.jil).map_err(BundleError::Jil)?;
    // Bundles are external input: unlike generator output, they get the
    // full structural validation before any analysis may index them.
    let errors = gdroid_ir::validate_program(&program);
    if let Some(first) = errors.first() {
        return Err(BundleError::Invalid(format!("{first} (+{} more)", errors.len() - 1)));
    }

    let mut package = String::new();
    let mut category = Category::Tools;
    let mut seed = 0u64;
    let mut components = Vec::new();
    let mut permissions = Vec::new();
    for (lineno, line) in text.manifest.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let key = parts.next().unwrap_or_default();
        let err = |m: &str| BundleError::Manifest(format!("line {}: {m}", lineno + 1));
        match key {
            "package" => package = parts.next().ok_or_else(|| err("missing package"))?.into(),
            "category" => {
                let name = parts.next().ok_or_else(|| err("missing category"))?;
                category = Category::ALL
                    .into_iter()
                    .find(|c| c.name() == name)
                    .ok_or_else(|| err("unknown category"))?;
            }
            "seed" => {
                seed = parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| err("bad seed"))?;
            }
            "component" => {
                let class = parts.next().ok_or_else(|| err("missing class"))?;
                let kind_s = parts.next().ok_or_else(|| err("missing kind"))?;
                let kind = ComponentKind::ALL
                    .into_iter()
                    .find(|k| format!("{k:?}") == kind_s)
                    .ok_or_else(|| err("unknown component kind"))?;
                let exported = parts.next() == Some("exported");
                let main = parts.next() == Some("MAIN");
                let class_sym = program
                    .interner
                    .get(class)
                    .ok_or_else(|| err("component class not in program"))?;
                components.push(Component {
                    class: class_sym,
                    kind,
                    exported,
                    intent_filters: if main {
                        vec![IntentFilter { action: "android.intent.action.MAIN".into() }]
                    } else {
                        vec![]
                    },
                });
            }
            "permission" => {
                let name = parts.next().ok_or_else(|| err("missing permission"))?;
                let p = Permission::ALL
                    .into_iter()
                    .find(|p| p.manifest_name() == name)
                    .ok_or_else(|| err("unknown permission"))?;
                permissions.push(p);
            }
            other => return Err(err(&format!("unknown key `{other}`"))),
        }
    }

    Ok(App {
        name: package.clone(),
        category,
        seed,
        program,
        manifest: Manifest { package, components, permissions },
    })
}

/// Reads a bundle directory back into an [`App`].
pub fn load_bundle(dir: &Path) -> Result<App, BundleError> {
    parse_bundle(&read_bundle(dir)?)
}

/// Exports the first `count` apps of a corpus under `root/<package>/`.
/// Returns the bundle directories written.
pub fn export_corpus(
    corpus: &crate::corpus::Corpus,
    count: usize,
    root: &Path,
) -> Result<Vec<std::path::PathBuf>, BundleError> {
    let mut dirs = Vec::new();
    for i in 0..count.min(corpus.size) {
        let app = corpus.generate(i);
        let dir = root.join(&app.name);
        save_bundle(&app, &dir)?;
        dirs.push(dir);
    }
    Ok(dirs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenConfig;
    use crate::corpus::Corpus;
    use crate::generator::generate_app;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gdroid-bundle-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn bundle_roundtrip_preserves_app() {
        let app = generate_app(0, 6501, &GenConfig::tiny());
        let dir = tmpdir("roundtrip");
        save_bundle(&app, &dir).unwrap();
        let loaded = load_bundle(&dir).unwrap();
        assert_eq!(loaded.name, app.name);
        assert_eq!(loaded.category, app.category);
        assert_eq!(loaded.seed, app.seed);
        assert_eq!(loaded.program.methods.len(), app.program.methods.len());
        assert_eq!(loaded.program.total_statements(), app.program.total_statements());
        assert_eq!(loaded.manifest.components.len(), app.manifest.components.len());
        assert_eq!(loaded.manifest.permissions, app.manifest.permissions);
        // Component classes resolve against the re-parsed interner.
        for c in &loaded.manifest.components {
            assert!(loaded.program.class_by_name(c.class).is_some());
        }
        // Launcher survives.
        assert_eq!(loaded.manifest.launcher().is_some(), app.manifest.launcher().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loaded_bundle_analyzes_identically() {
        use gdroid_ir::validate_program;
        let app = generate_app(0, 6502, &GenConfig::tiny());
        let dir = tmpdir("analyze");
        save_bundle(&app, &dir).unwrap();
        let loaded = load_bundle(&dir).unwrap();
        assert!(validate_program(&loaded.program).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_corpus_writes_bundles() {
        let corpus = Corpus::test_corpus(3);
        let dir = tmpdir("corpus");
        let dirs = export_corpus(&corpus, 3, &dir).unwrap();
        assert_eq!(dirs.len(), 3);
        for d in &dirs {
            assert!(d.join("app.jil").exists());
            assert!(d.join("manifest.txt").exists());
            load_bundle(d).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_then_parse_is_load_and_the_package_needs_no_parse() {
        let app = generate_app(3, 6504, &GenConfig::tiny());
        let dir = tmpdir("split");
        save_bundle(&app, &dir).unwrap();
        let text = read_bundle(&dir).unwrap();
        // What was read is what was written, byte for byte.
        assert_eq!(text.jil, print_program(&app.program));
        assert_eq!(text.manifest, manifest_to_text(&app));
        assert_eq!(text.package(), app.manifest.package);
        let parsed = parse_bundle(&text).unwrap();
        assert_eq!(parsed.manifest, load_bundle(&dir).unwrap().manifest);
        assert_eq!(print_program(&parsed.program), text.jil, "parse → print is a fixpoint");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One hostile edit of a file's bytes.
    fn mangle(bytes: &[u8], op: usize, a: usize, b: usize, byte: u8) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let at = |i: usize| i % bytes.len();
        match op {
            // Flip bits of one byte.
            0 => out[at(a)] ^= byte | 1,
            // Truncate (possibly mid-token, mid-line, or to nothing).
            1 => out.truncate(at(a)),
            // Splice a chunk of the file over another place in it.
            2 => {
                let (from, to) = (at(a), at(b));
                let chunk: Vec<u8> =
                    bytes[from..(from + 1 + usize::from(byte)).min(bytes.len())].to_vec();
                out.splice(to..to, chunk);
            }
            // Bytes that are not UTF-8.
            3 => out[at(a)] = 0xFF,
            // The empty file.
            _ => out.clear(),
        }
        out
    }

    proptest::proptest! {
        /// ROADMAP 4b for bundles: whatever happens to the two files, the
        /// read step and the loader answer `Err` or a *valid* app — they
        /// never panic and never hand unvalidated IR to an analysis.
        #[test]
        fn hostile_bundle_bytes_never_panic_the_loader(
            seed in 0u64..4,
            file_and_op in 0usize..10,
            a: usize,
            b: usize,
            byte: u8,
        ) {
            let app = generate_app(0, 6600 + seed, &GenConfig::tiny());
            let dir = tmpdir(&format!("hostile-{seed}-{file_and_op}-{}", a % 9973));
            save_bundle(&app, &dir).unwrap();
            let file = dir.join(["app.jil", "manifest.txt"][file_and_op % 2]);
            let mangled = mangle(&std::fs::read(&file).unwrap(), file_and_op / 2, a, b, byte);
            std::fs::write(&file, &mangled).unwrap();

            let read = read_bundle(&dir);
            let loaded = load_bundle(&dir);
            std::fs::remove_dir_all(&dir).unwrap();
            proptest::prop_assert_eq!(read.is_err(), std::str::from_utf8(&mangled).is_err());
            if let Ok(text) = read {
                // Reading a package off hostile text is total as well.
                let _ = text.package();
            }
            if let Ok(app) = loaded {
                proptest::prop_assert!(gdroid_ir::validate_program(&app.program).is_empty());
                for c in &app.manifest.components {
                    proptest::prop_assert!(c.class.index() < app.program.interner.len());
                }
            }
        }
    }

    #[test]
    fn malformed_manifest_is_rejected() {
        let app = generate_app(0, 6503, &GenConfig::tiny());
        let dir = tmpdir("bad");
        save_bundle(&app, &dir).unwrap();
        std::fs::write(dir.join("manifest.txt"), "nonsense line\n").unwrap();
        let err = load_bundle(&dir).unwrap_err();
        assert!(matches!(err, BundleError::Manifest(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
