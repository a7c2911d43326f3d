//! Batch vocabulary for the request engine: the operations a caller can
//! submit, the per-op outputs, and the [`BatchReport`] the engine returns.

use crate::error::DosnError;
use dosn_crypto::sha256::Sha256;

/// One social-network operation, submitted as part of an [`OpBatch`].
///
/// The engine executes a batch in *stages* (see [`crate::engine::Engine`]):
/// all `Register`s take effect, then all `Befriend`s, then `Post` crypto
/// and storage commits, then `Comment`s, then `ReadPost`s. Posts by one
/// author keep their relative batch order (sequence numbers follow
/// submission order), a `Comment` anywhere in the batch lands on a post
/// the same batch creates, and a `ReadPost` sees every post the same
/// batch committed.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Register `name` with the default symmetric friends-group scheme.
    Register {
        /// The user name to register.
        name: String,
    },
    /// Make `a` and `b` friends: each joins the other's friends group.
    Befriend {
        /// One endpoint of the friendship.
        a: String,
        /// The other endpoint.
        b: String,
        /// Trust weight: must lie in `[0, 1]`; validated, not stored.
        trust: f64,
    },
    /// Publish a friends-only post on `author`'s wall.
    Post {
        /// The posting user.
        author: String,
        /// Plaintext body.
        body: String,
    },
    /// Attach a comment to `author`'s post `seq`.
    Comment {
        /// The commenting user (must be in the author's friends group).
        commenter: String,
        /// The post's author.
        author: String,
        /// The author-local post sequence number.
        seq: u64,
        /// Comment body.
        body: String,
    },
    /// Fetch, verify, and decrypt `author`'s post `seq` as `reader`.
    ReadPost {
        /// The reading user.
        reader: String,
        /// The post's author.
        author: String,
        /// The author-local post sequence number.
        seq: u64,
    },
}

/// An ordered batch of operations, with builder helpers:
///
/// ```
/// use dosn_core::engine::OpBatch;
///
/// let batch = OpBatch::new()
///     .register("alice")
///     .register("bob")
///     .befriend("alice", "bob", 0.9)
///     .post("alice", "hello, friends")
///     .read_post("bob", "alice", 0);
/// assert_eq!(batch.len(), 5);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpBatch {
    ops: Vec<Op>,
}

impl OpBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an explicit op list.
    pub fn from_ops(ops: Vec<Op>) -> Self {
        OpBatch { ops }
    }

    /// Appends an op.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Builder: append a [`Op::Register`].
    #[must_use]
    pub fn register(mut self, name: &str) -> Self {
        self.ops.push(Op::Register { name: name.into() });
        self
    }

    /// Builder: append a [`Op::Befriend`].
    #[must_use]
    pub fn befriend(mut self, a: &str, b: &str, trust: f64) -> Self {
        self.ops.push(Op::Befriend {
            a: a.into(),
            b: b.into(),
            trust,
        });
        self
    }

    /// Builder: append a [`Op::Post`].
    #[must_use]
    pub fn post(mut self, author: &str, body: &str) -> Self {
        self.ops.push(Op::Post {
            author: author.into(),
            body: body.into(),
        });
        self
    }

    /// Builder: append a [`Op::Comment`].
    #[must_use]
    pub fn comment(mut self, commenter: &str, author: &str, seq: u64, body: &str) -> Self {
        self.ops.push(Op::Comment {
            commenter: commenter.into(),
            author: author.into(),
            seq,
            body: body.into(),
        });
        self
    }

    /// Builder: append a [`Op::ReadPost`].
    #[must_use]
    pub fn read_post(mut self, reader: &str, author: &str, seq: u64) -> Self {
        self.ops.push(Op::ReadPost {
            reader: reader.into(),
            author: author.into(),
            seq,
        });
        self
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The ops, in submission order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Consumes the batch, returning the ops.
    pub fn into_ops(self) -> Vec<Op> {
        self.ops
    }
}

/// The successful output of one op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutput {
    /// A [`Op::Register`] completed.
    Registered,
    /// A [`Op::Befriend`] completed.
    Befriended,
    /// A [`Op::Post`] committed; carries the author-local sequence number.
    Posted {
        /// Author-local sequence number of the new post.
        seq: u64,
    },
    /// A [`Op::Comment`] attached.
    Commented,
    /// A [`Op::ReadPost`] verified and decrypted; carries the plaintext.
    Read {
        /// The decrypted post body.
        body: String,
    },
}

/// What one [`crate::engine::Engine::execute`] call did: per-op results in
/// submission order and a deterministic digest.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-op outcome, aligned with the submitted batch.
    pub results: Vec<Result<OpOutput, DosnError>>,
    /// SHA-256 over every op outcome and every committed storage record,
    /// in op order. Byte-identical across runs with the same engine seed
    /// and the same batches before it — the engine's determinism contract,
    /// pinned by the `engine_determinism` suite.
    pub digest: [u8; 32],
}

impl BatchReport {
    /// The digest as lowercase hex.
    pub fn digest_hex(&self) -> String {
        self.digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Folds one op's outcome into a digest hasher (engine internal).
    pub(crate) fn fold_outcome(hasher: &mut Sha256, result: &Result<OpOutput, DosnError>) {
        match result {
            Ok(OpOutput::Registered) => hasher.update(b"R"),
            Ok(OpOutput::Befriended) => hasher.update(b"B"),
            Ok(OpOutput::Posted { seq }) => {
                hasher.update(b"P");
                hasher.update(&seq.to_be_bytes());
            }
            Ok(OpOutput::Commented) => hasher.update(b"C"),
            Ok(OpOutput::Read { body }) => {
                hasher.update(b"D");
                hasher.update(&(body.len() as u64).to_be_bytes());
                hasher.update(body.as_bytes());
            }
            Err(e) => {
                // Error *variants* are deterministic; their display strings
                // carry incidental detail, so digest the variant tag only.
                hasher.update(b"E");
                hasher.update(&[error_tag(e)]);
            }
        }
    }
}

fn error_tag(e: &DosnError) -> u8 {
    match e {
        DosnError::Crypto(_) => 1,
        DosnError::UnknownUser(_) => 2,
        DosnError::UnknownGroup(_) => 3,
        DosnError::NotAuthorized(_) => 4,
        DosnError::IntegrityViolation(_) => 5,
        DosnError::MalformedEnvelope(_) => 6,
        DosnError::ForkDetected(_) => 7,
        DosnError::ContentUnavailable(_) => 8,
        DosnError::Search(_) => 9,
        DosnError::NameTaken(_) => 10,
        DosnError::InvalidArgument(_) => 11,
    }
}
