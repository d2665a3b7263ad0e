//! Sealed bundles: a job checked once and fingerprinted at most once.
//!
//! A [`JobBundle`] is plain, mutable data; nothing about it says whether it
//! was validated, so a layer handed one would have to validate it again and
//! re-derive its program hashes. A [`SealedBundle`] is the committed form, in
//! the manner of MPI's `MPI_Type_commit`: only a successful
//! [`JobBundle::validate`] constructs one, it is immutable and `Arc`-shared
//! (a clone is a reference-count bump), and it memoizes what the layers below
//! the seal derive from the program — the program hash, the symbolic program
//! hash and the canonical symbol table — each computed at most once.
//!
//! Facts that depend only on the program (data types and operators, not the
//! name, context, bindings, class or metadata) live in a table that bundles
//! with the same program allocation share: [`SealedBundle::seal_sharing`]
//! seals the members of a sweep so that N points validate and hash their
//! program once between them.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::bundle::JobBundle;
use crate::error::Result;

/// What depends only on a bundle's program — its data types and operators —
/// each derived at most once and shared by every sealed bundle with that
/// program.
#[derive(Debug, Default)]
struct ProgramFacts {
    /// [`JobBundle`]'s unrenamed intent hash: `program_hash` without the
    /// bindings, and the symbolic hash of a program without symbols.
    intent_hash: OnceLock<u64>,
    /// The intent hash with symbols renamed to their canonical slots.
    symbolic_hash: OnceLock<u64>,
    canonical_symbols: OnceLock<Vec<String>>,
}

#[derive(Debug)]
struct Sealed {
    bundle: JobBundle,
    program: Arc<ProgramFacts>,
    /// The intent hash folded with this bundle's own bindings.
    program_hash: OnceLock<u64>,
}

/// A [`JobBundle`] that passed [`JobBundle::validate`], with its program
/// hashes and canonical symbols memoized.
///
/// This is the type that crosses service → runtime → backend: nothing below
/// the seal validates again or recomputes a hash. It dereferences to the
/// bundle for read access; its own [`SealedBundle::program_hash`],
/// [`SealedBundle::symbolic_program_hash`] and
/// [`SealedBundle::canonical_symbols`] shadow the bundle's and return the
/// memoized values, which always equal what the bundle would compute.
///
/// ```
/// use qml_types::prelude::*;
///
/// let qdt = QuantumDataType::ising_spins("s", "s", 2)?;
/// let prep = OperatorDescriptor::builder("prep", RepKind::PrepUniform, "s").build()?;
/// let bundle = JobBundle::new("demo", vec![qdt], vec![prep]);
/// let sealed = SealedBundle::seal(bundle.clone())?;
/// assert_eq!(sealed.program_hash(), bundle.program_hash());
/// assert!(SealedBundle::seal(JobBundle::new("empty", vec![], vec![])).is_err());
/// # Ok::<(), qml_types::QmlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SealedBundle(Arc<Sealed>);

impl SealedBundle {
    /// Validate `bundle` and seal it.
    pub fn seal(bundle: JobBundle) -> Result<SealedBundle> {
        bundle.validate()?;
        Ok(SealedBundle::wrap(bundle, Arc::default()))
    }

    /// Validate `bundle` and seal it, sharing `sibling`'s program facts when
    /// both bundles point at the same data-type and operator allocations —
    /// the members of a sweep, which differ only in name, context, bindings
    /// and metadata. Such a bundle runs only the member-level checks (name,
    /// schema, context): its immutable program passed the program-level
    /// checks when the sibling was sealed. A bundle with a program of its
    /// own, even an equal one, is validated in full and gets facts of its
    /// own, so a sealed hash is always one computed from the bundle's own
    /// program.
    pub fn seal_sharing(bundle: JobBundle, sibling: &SealedBundle) -> Result<SealedBundle> {
        let same_program = Arc::ptr_eq(&bundle.data_types, &sibling.data_types)
            && Arc::ptr_eq(&bundle.operators, &sibling.operators);
        if !same_program {
            return SealedBundle::seal(bundle);
        }
        bundle.validate_member()?;
        Ok(SealedBundle::wrap(bundle, Arc::clone(&sibling.0.program)))
    }

    fn wrap(bundle: JobBundle, program: Arc<ProgramFacts>) -> SealedBundle {
        SealedBundle(Arc::new(Sealed {
            bundle,
            program,
            program_hash: OnceLock::new(),
        }))
    }

    /// The bundle back, unsealed: moved out when this is the last handle,
    /// cloned otherwise.
    pub fn into_bundle(self) -> JobBundle {
        Arc::try_unwrap(self.0)
            .map(|sealed| sealed.bundle)
            .unwrap_or_else(|shared| shared.bundle.clone())
    }

    /// [`JobBundle::program_hash`], computed at most once.
    pub fn program_hash(&self) -> u64 {
        *self
            .0
            .program_hash
            .get_or_init(|| self.0.bundle.program_hash_from(self.intent_hash()))
    }

    /// [`JobBundle::symbolic_program_hash`], computed at most once per
    /// program.
    pub fn symbolic_program_hash(&self) -> u64 {
        let symbols = self.canonical_symbols();
        if symbols.is_empty() {
            return self.intent_hash();
        }
        *self
            .0
            .program
            .symbolic_hash
            .get_or_init(|| self.0.bundle.symbolic_hash_with(symbols))
    }

    /// [`JobBundle::canonical_symbols`], computed at most once per program.
    pub fn canonical_symbols(&self) -> &[String] {
        self.0
            .program
            .canonical_symbols
            .get_or_init(|| self.0.bundle.canonical_symbols())
    }

    fn intent_hash(&self) -> u64 {
        *self
            .0
            .program
            .intent_hash
            .get_or_init(|| self.0.bundle.intent_hash(None))
    }
}

impl Deref for SealedBundle {
    type Target = JobBundle;

    fn deref(&self) -> &JobBundle {
        &self.0.bundle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::BindingSet;
    use crate::context::{ContextDescriptor, ExecConfig};
    use crate::params::ParamValue;
    use crate::qdt::QuantumDataType;
    use crate::qod::{OperatorDescriptor, RepKind};

    fn program(symbol: &str) -> JobBundle {
        let qdt = QuantumDataType::ising_spins("s", "s", 3).unwrap();
        let mixer = OperatorDescriptor::builder("mixer", RepKind::MixerRx, "s")
            .param("beta", ParamValue::symbol(symbol))
            .build()
            .unwrap();
        JobBundle::new("p", vec![qdt], vec![mixer])
    }

    #[test]
    fn memoized_hashes_equal_the_bundles_own() {
        let bundle = program("b").with_bindings(BindingSet::new().with("b", 0.3));
        let sealed = SealedBundle::seal(bundle.clone()).unwrap();
        assert_eq!(sealed.program_hash(), bundle.program_hash());
        assert_eq!(
            sealed.symbolic_program_hash(),
            bundle.symbolic_program_hash()
        );
        assert_eq!(sealed.canonical_symbols(), bundle.canonical_symbols());
        assert_eq!(sealed.clone().into_bundle(), bundle);
    }

    #[test]
    fn siblings_share_program_facts_only_with_the_same_program() {
        let base = program("b");
        let first =
            SealedBundle::seal(base.clone().with_bindings(BindingSet::new().with("b", 0.1)))
                .unwrap();
        let second = SealedBundle::seal_sharing(
            base.with_bindings(BindingSet::new().with("b", 0.2)),
            &first,
        )
        .unwrap();
        assert!(Arc::ptr_eq(&first.0.program, &second.0.program));
        assert_ne!(first.program_hash(), second.program_hash());

        // An equal program in an allocation of its own gets its own facts.
        let equal = SealedBundle::seal_sharing(program("b"), &first).unwrap();
        assert!(!Arc::ptr_eq(&first.0.program, &equal.0.program));

        let renamed = SealedBundle::seal_sharing(program("c"), &first).unwrap();
        assert!(!Arc::ptr_eq(&first.0.program, &renamed.0.program));
        assert_eq!(renamed.canonical_symbols(), ["c".to_string()]);
        assert_eq!(
            renamed.symbolic_program_hash(),
            first.symbolic_program_hash()
        );
    }

    #[test]
    fn a_sibling_with_an_equal_program_keeps_its_own_hash() {
        // `-0.0 == 0.0`, but the hash reads the JSON text, where they differ:
        // equal programs can have different hashes.
        let with_beta = |beta: f64| {
            let qdt = QuantumDataType::ising_spins("s", "s", 3).unwrap();
            let mixer = OperatorDescriptor::builder("mixer", RepKind::MixerRx, "s")
                .param("beta", ParamValue::Float(beta))
                .build()
                .unwrap();
            JobBundle::new("p", vec![qdt], vec![mixer])
        };
        let first = SealedBundle::seal(with_beta(0.0)).unwrap();
        let negative = with_beta(-0.0);
        assert_eq!(negative.operators, first.operators);
        let second = SealedBundle::seal_sharing(negative.clone(), &first).unwrap();
        assert_ne!(first.program_hash(), negative.program_hash());
        assert_eq!(second.program_hash(), negative.program_hash());
        assert_eq!(
            second.symbolic_program_hash(),
            negative.symbolic_program_hash()
        );
    }

    #[test]
    fn a_shared_program_runs_only_the_member_checks() {
        let valid = SealedBundle::seal(program("b")).unwrap();
        let mut renamed = valid.clone().into_bundle();
        renamed.name = " ".into();
        assert!(SealedBundle::seal_sharing(renamed, &valid).is_err());
        let mut schema = valid.clone().into_bundle();
        schema.schema = "other.schema.json".into();
        assert!(SealedBundle::seal_sharing(schema, &valid).is_err());
        let zero_shots = ExecConfig::new("gate.aer_simulator").with_samples(0);
        let invalid_context = valid
            .clone()
            .into_bundle()
            .with_context(ContextDescriptor::for_gate(zero_shots));
        assert!(SealedBundle::seal_sharing(invalid_context, &valid).is_err());
    }

    #[test]
    fn sealing_validates() {
        let invalid = JobBundle::new("", vec![], vec![]);
        assert!(SealedBundle::seal(invalid.clone()).is_err());
        let valid = SealedBundle::seal(program("b")).unwrap();
        assert!(SealedBundle::seal_sharing(invalid, &valid).is_err());
    }
}
