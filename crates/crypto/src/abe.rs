//! Ciphertext-policy attribute-based encryption (survey §III-D).
//!
//! In CP-ABE a message is encrypted under an *access structure* — a logical
//! expression over attributes like `relative AND doctor` — and a user's key
//! embeds the attributes the issuer granted them. Persona (survey §III-D/F)
//! makes every user the ABE *authority* for their own social circle: they
//! define attributes, issue keys to friends, and encrypt posts under
//! policies. That is exactly the model implemented here: [`AbeAuthority`] is
//! per-owner.
//!
//! **Substitution note (see DESIGN.md):** pairing-based CP-ABE (BSW07) is
//! out of scope for a from-scratch build. This module compiles policies to
//! [Shamir](crate::shamir) secret-sharing trees whose leaves are wrapped
//! under per-attribute symmetric keys derived from the authority's master
//! secret. It preserves the policy semantics (AND/OR/k-of-n), the
//! group-management API, and the survey's revocation cost shape (re-keying
//! epochs + re-encryption of history); it is **not collusion-resistant**:
//! users pooling attribute keys can jointly satisfy policies neither
//! satisfies alone, which pairing-based ABE prevents.
//!
//! # Policy language
//!
//! ```text
//! policy    := or_expr
//! or_expr   := and_expr ( "OR" and_expr )*
//! and_expr  := primary ( "AND" primary )*
//! primary   := attribute | "(" policy ")" | NUMBER "of" "(" policy ("," policy)* ")"
//! attribute := [A-Za-z0-9_:.-]+
//! ```
//!
//! Parentheses and threshold gates nest at most 64 deep; a deeper policy
//! is a [`CryptoError::PolicyParse`], so neither the recursive-descent
//! parser nor anything that walks the tree it builds recurses further than
//! that, whatever bytes a peer sends.

use crate::aead::SymmetricKey;
use crate::chacha::SecureRng;
use crate::error::CryptoError;
use crate::hmac::Prf;
use crate::shamir;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// A monotone access structure over attribute names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Satisfied when the user holds the named attribute.
    Attr(String),
    /// Satisfied when all children are satisfied.
    And(Vec<Policy>),
    /// Satisfied when at least one child is satisfied.
    Or(Vec<Policy>),
    /// Satisfied when at least `k` children are satisfied.
    Threshold(usize, Vec<Policy>),
}

impl Policy {
    /// Parses the policy language described in the module docs.
    ///
    /// ```
    /// use dosn_crypto::abe::Policy;
    /// let p = Policy::parse("(relative OR painter) AND doctor")?;
    /// assert!(p.satisfied_by(&["relative".into(), "doctor".into()].into()));
    /// assert!(!p.satisfied_by(&["painter".into()].into()));
    /// # Ok::<(), dosn_crypto::error::CryptoError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::PolicyParse`] on syntax errors and on
    /// parentheses or threshold gates nested more than 64 deep.
    pub fn parse(input: &str) -> Result<Self, CryptoError> {
        let tokens = tokenize(input)?;
        let mut parser = Parser {
            tokens: &tokens,
            pos: 0,
            depth: 0,
        };
        let policy = parser.parse_or()?;
        if parser.pos != tokens.len() {
            return Err(CryptoError::PolicyParse(format!(
                "unexpected trailing token {:?}",
                tokens[parser.pos]
            )));
        }
        Ok(policy)
    }

    /// Returns `true` when `attrs` satisfies the access structure.
    pub fn satisfied_by(&self, attrs: &HashSet<String>) -> bool {
        match self {
            Policy::Attr(a) => attrs.contains(a),
            Policy::And(cs) => cs.iter().all(|c| c.satisfied_by(attrs)),
            Policy::Or(cs) => cs.iter().any(|c| c.satisfied_by(attrs)),
            Policy::Threshold(k, cs) => cs.iter().filter(|c| c.satisfied_by(attrs)).count() >= *k,
        }
    }

    /// All attribute names mentioned by the policy.
    pub fn attributes(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        self.collect_attrs(&mut out);
        out
    }

    fn collect_attrs(&self, out: &mut HashSet<String>) {
        match self {
            Policy::Attr(a) => {
                out.insert(a.clone());
            }
            Policy::And(cs) | Policy::Or(cs) | Policy::Threshold(_, cs) => {
                for c in cs {
                    c.collect_attrs(out);
                }
            }
        }
    }

    /// Validates gate arities (`k >= 1`, `k <= n`, non-empty children).
    fn validate(&self) -> Result<(), CryptoError> {
        match self {
            Policy::Attr(a) => {
                if a.is_empty() {
                    Err(CryptoError::PolicyParse("empty attribute".into()))
                } else {
                    Ok(())
                }
            }
            Policy::And(cs) | Policy::Or(cs) => {
                if cs.is_empty() {
                    return Err(CryptoError::PolicyParse("empty gate".into()));
                }
                cs.iter().try_for_each(Policy::validate)
            }
            Policy::Threshold(k, cs) => {
                if *k == 0 || *k > cs.len() || cs.is_empty() {
                    return Err(CryptoError::PolicyParse(format!(
                        "invalid threshold {k} of {}",
                        cs.len()
                    )));
                }
                cs.iter().try_for_each(Policy::validate)
            }
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Attr(a) => f.write_str(a),
            Policy::And(cs) => write_joined(f, cs, " AND "),
            Policy::Or(cs) => write_joined(f, cs, " OR "),
            Policy::Threshold(k, cs) => {
                write!(f, "{k} of (")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{c}")?;
                }
                f.write_str(")")
            }
        }
    }
}

fn write_joined(f: &mut fmt::Formatter<'_>, cs: &[Policy], sep: &str) -> fmt::Result {
    f.write_str("(")?;
    for (i, c) in cs.iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        write!(f, "{c}")?;
    }
    f.write_str(")")
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Attr(String),
    Number(usize),
    And,
    Or,
    Of,
    LParen,
    RParen,
    Comma,
}

fn tokenize(input: &str) -> Result<Vec<Token>, CryptoError> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                chars.next();
            }
            '(' => {
                chars.next();
                out.push(Token::LParen);
            }
            ')' => {
                chars.next();
                out.push(Token::RParen);
            }
            ',' => {
                chars.next();
                out.push(Token::Comma);
            }
            c if c.is_ascii_alphanumeric() || c == '_' || c == ':' || c == '.' || c == '-' => {
                let mut word = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == ':' || c == '.' || c == '-' {
                        word.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                match word.to_ascii_uppercase().as_str() {
                    "AND" => out.push(Token::And),
                    "OR" => out.push(Token::Or),
                    "OF" => out.push(Token::Of),
                    _ => {
                        if let Ok(n) = word.parse::<usize>() {
                            out.push(Token::Number(n));
                        } else {
                            out.push(Token::Attr(word));
                        }
                    }
                }
            }
            other => {
                return Err(CryptoError::PolicyParse(format!(
                    "unexpected character {other:?}"
                )))
            }
        }
    }
    if out.is_empty() {
        return Err(CryptoError::PolicyParse("empty policy".into()));
    }
    Ok(out)
}

/// How deep parentheses and threshold gates may nest in a policy: far past
/// any policy a person writes, and a fixed bound on the parser's recursion
/// and on the depth of the tree it returns.
const MAX_NESTING: usize = 64;

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Parentheses and threshold gates open at the current token.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, token: Token) -> Result<(), CryptoError> {
        match self.next() {
            Some(t) if *t == token => Ok(()),
            other => Err(CryptoError::PolicyParse(format!(
                "expected {token:?}, found {other:?}"
            ))),
        }
    }

    fn parse_or(&mut self) -> Result<Policy, CryptoError> {
        let mut terms = vec![self.parse_and()?];
        while matches!(self.peek(), Some(Token::Or)) {
            self.next();
            terms.push(self.parse_and()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one element")
        } else {
            Policy::Or(terms)
        })
    }

    fn parse_and(&mut self) -> Result<Policy, CryptoError> {
        let mut terms = vec![self.parse_primary()?];
        while matches!(self.peek(), Some(Token::And)) {
            self.next();
            terms.push(self.parse_primary()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one element")
        } else {
            Policy::And(terms)
        })
    }

    fn parse_primary(&mut self) -> Result<Policy, CryptoError> {
        match self.next().cloned() {
            Some(Token::Attr(a)) => Ok(Policy::Attr(a)),
            Some(Token::LParen) => self.nested(|parser| {
                let inner = parser.parse_or()?;
                parser.expect(Token::RParen)?;
                Ok(inner)
            }),
            Some(Token::Number(k)) => {
                self.expect(Token::Of)?;
                self.expect(Token::LParen)?;
                let children = self.nested(|parser| {
                    let mut children = vec![parser.parse_or()?];
                    while matches!(parser.peek(), Some(Token::Comma)) {
                        parser.next();
                        children.push(parser.parse_or()?);
                    }
                    parser.expect(Token::RParen)?;
                    Ok(children)
                })?;
                if k == 0 || k > children.len() {
                    return Err(CryptoError::PolicyParse(format!(
                        "threshold {k} of {} children",
                        children.len()
                    )));
                }
                Ok(Policy::Threshold(k, children))
            }
            other => Err(CryptoError::PolicyParse(format!(
                "expected attribute, '(' or threshold, found {other:?}"
            ))),
        }
    }

    /// Parses one more level of nesting with `inner`, or refuses past
    /// [`MAX_NESTING`] levels before recursing.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, CryptoError>,
    ) -> Result<T, CryptoError> {
        if self.depth == MAX_NESTING {
            return Err(CryptoError::PolicyParse(format!(
                "nested more than {MAX_NESTING} deep"
            )));
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }
}

/// A user's decryption key: attribute keys at their issuance epochs.
#[derive(Clone)]
pub struct UserKey {
    holder: String,
    entries: HashMap<String, (u64, SymmetricKey)>,
}

impl fmt::Debug for UserKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "UserKey({} holding {} attributes)",
            self.holder,
            self.entries.len()
        )
    }
}

impl UserKey {
    /// The user this key was issued to.
    pub fn holder(&self) -> &str {
        &self.holder
    }

    /// The attributes (with epochs) embedded in this key.
    pub fn attributes(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(a, (e, _))| (a.as_str(), *e))
    }

    /// Decrypts a ciphertext whose policy this key satisfies.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::PolicyNotSatisfied`] when the key's attributes
    /// (at the ciphertext's epochs) cannot satisfy the policy.
    pub fn decrypt(&self, ct: &AbeCiphertext) -> Result<Vec<u8>, CryptoError> {
        let dek_bytes = self
            .recover_node(&ct.root)
            .ok_or(CryptoError::PolicyNotSatisfied)?;
        let dek: [u8; 32] = dek_bytes
            .try_into()
            .map_err(|_| CryptoError::Malformed("bad DEK length".into()))?;
        SymmetricKey::from_bytes(&dek).open(&ct.sealed, b"dosn.abe")
    }

    fn recover_node(&self, node: &CtNode) -> Option<Vec<u8>> {
        match node {
            CtNode::Leaf {
                attr,
                epoch,
                wrapped,
            } => {
                let (held_epoch, key) = self.entries.get(attr)?;
                if held_epoch != epoch {
                    return None;
                }
                key.open(wrapped, b"dosn.abe.leaf").ok()
            }
            CtNode::Gate {
                threshold,
                children,
            } => {
                let mut shares = Vec::new();
                for (idx, child) in children.iter().enumerate() {
                    if shares.len() >= *threshold {
                        break;
                    }
                    if let Some(bytes) = self.recover_node(child) {
                        if let Some(share) = shamir::Share::decode(idx as u64 + 1, &bytes) {
                            shares.push(share);
                        }
                    }
                }
                if shares.len() < *threshold {
                    return None;
                }
                shamir::reconstruct(&shares).ok()
            }
        }
    }
}

/// One node of the ciphertext tree, mirroring the policy shape.
#[derive(Clone, Debug)]
enum CtNode {
    Leaf {
        attr: String,
        epoch: u64,
        wrapped: Vec<u8>,
    },
    Gate {
        threshold: usize,
        children: Vec<CtNode>,
    },
}

/// A CP-ABE ciphertext.
#[derive(Clone, Debug)]
pub struct AbeCiphertext {
    policy: Policy,
    root: CtNode,
    sealed: Vec<u8>,
}

impl AbeCiphertext {
    /// The (public) access policy of this ciphertext.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The attribute epochs this ciphertext was encrypted at.
    pub fn epochs(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        collect_epochs(&self.root, &mut out);
        out
    }

    /// Approximate wire size in bytes.
    pub fn size_bytes(&self) -> usize {
        node_size(&self.root) + self.sealed.len()
    }
}

fn collect_epochs(node: &CtNode, out: &mut BTreeMap<String, u64>) {
    match node {
        CtNode::Leaf { attr, epoch, .. } => {
            out.insert(attr.clone(), *epoch);
        }
        CtNode::Gate { children, .. } => {
            for c in children {
                collect_epochs(c, out);
            }
        }
    }
}

fn node_size(node: &CtNode) -> usize {
    match node {
        CtNode::Leaf { attr, wrapped, .. } => attr.len() + 8 + wrapped.len(),
        CtNode::Gate { children, .. } => 8 + children.iter().map(node_size).sum::<usize>(),
    }
}

/// Report of what a revocation cost (survey §III-D: "re-keying" overhead).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RevocationReport {
    /// Attributes whose epoch was rotated.
    pub attributes_rotated: Vec<String>,
    /// Number of fresh attribute keys re-issued to remaining holders.
    pub keys_reissued: usize,
}

/// A per-owner attribute authority (the Persona model: every user runs one).
///
/// ```
/// use dosn_crypto::{abe::{AbeAuthority, Policy}, chacha::SecureRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SecureRng::seed_from_u64(14);
/// let mut authority = AbeAuthority::new([3u8; 32]);
/// let alice = authority.issue_key("alice", &["relative".into(), "doctor".into()]);
/// let policy = Policy::parse("relative AND doctor")?;
/// let ct = authority.encrypt(&policy, b"medical news", &mut rng)?;
/// assert_eq!(alice.decrypt(&ct)?, b"medical news");
/// # Ok(())
/// # }
/// ```
pub struct AbeAuthority {
    prf: Prf,
    epochs: HashMap<String, u64>,
    /// holder -> granted attributes (for re-issue on revocation).
    grants: HashMap<String, HashSet<String>>,
}

impl fmt::Debug for AbeAuthority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AbeAuthority({} holders)", self.grants.len())
    }
}

impl AbeAuthority {
    /// Creates an authority from a 32-byte master secret.
    pub fn new(master_secret: [u8; 32]) -> Self {
        AbeAuthority {
            prf: Prf::new(master_secret),
            epochs: HashMap::new(),
            grants: HashMap::new(),
        }
    }

    /// Current epoch of an attribute (0 if never rotated).
    pub fn epoch(&self, attr: &str) -> u64 {
        self.epochs.get(attr).copied().unwrap_or(0)
    }

    fn attribute_key(&self, attr: &str, epoch: u64) -> SymmetricKey {
        let material = self
            .prf
            .eval(format!("attr|{attr}|epoch|{epoch}").as_bytes());
        SymmetricKey::from_bytes(&material)
    }

    /// Issues (or refreshes) a user key embedding `attrs` at current epochs.
    pub fn issue_key(&mut self, holder: &str, attrs: &[String]) -> UserKey {
        let entries = attrs
            .iter()
            .map(|a| {
                let e = self.epoch(a);
                (a.clone(), (e, self.attribute_key(a, e)))
            })
            .collect();
        self.grants
            .entry(holder.to_owned())
            .or_default()
            .extend(attrs.iter().cloned());
        UserKey {
            holder: holder.to_owned(),
            entries,
        }
    }

    /// Encrypts `plaintext` under `policy` at the current epochs.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::PolicyParse`] for structurally invalid
    /// policies (empty gates, bad thresholds).
    pub fn encrypt(
        &self,
        policy: &Policy,
        plaintext: &[u8],
        rng: &mut SecureRng,
    ) -> Result<AbeCiphertext, CryptoError> {
        policy.validate()?;
        let dek = rng.gen_key();
        let root = self.share_node(policy, &dek, rng)?;
        let sealed = SymmetricKey::from_bytes(&dek).seal(plaintext, b"dosn.abe", rng);
        Ok(AbeCiphertext {
            policy: policy.clone(),
            root,
            sealed,
        })
    }

    fn share_node(
        &self,
        policy: &Policy,
        secret: &[u8],
        rng: &mut SecureRng,
    ) -> Result<CtNode, CryptoError> {
        match policy {
            Policy::Attr(attr) => {
                let epoch = self.epoch(attr);
                let key = self.attribute_key(attr, epoch);
                Ok(CtNode::Leaf {
                    attr: attr.clone(),
                    epoch,
                    wrapped: key.seal(secret, b"dosn.abe.leaf", rng),
                })
            }
            Policy::And(children) => self.share_gate(children.len(), children, secret, rng),
            Policy::Or(children) => self.share_gate(1, children, secret, rng),
            Policy::Threshold(k, children) => self.share_gate(*k, children, secret, rng),
        }
    }

    fn share_gate(
        &self,
        threshold: usize,
        children: &[Policy],
        secret: &[u8],
        rng: &mut SecureRng,
    ) -> Result<CtNode, CryptoError> {
        let shares = shamir::split(secret, threshold, children.len(), rng)?;
        let nodes = children
            .iter()
            .zip(&shares)
            .map(|(child, share)| self.share_node(child, &share.encode(), rng))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CtNode::Gate {
            threshold,
            children: nodes,
        })
    }

    /// Revokes `holder`: rotates the epoch of every attribute they held and
    /// reports how many keys must be re-issued to the remaining holders.
    ///
    /// Old ciphertexts remain decryptable by old keys — the survey's point:
    /// "the previous data which were accessible by [the revoked user] must
    /// be encrypted and stored again", i.e. the owner must re-encrypt
    /// history (the social layer exposes this; benches E2 measure it).
    pub fn revoke_user(&mut self, holder: &str) -> RevocationReport {
        let Some(held) = self.grants.remove(holder) else {
            return RevocationReport::default();
        };
        let mut report = RevocationReport::default();
        let mut rotated: Vec<String> = held.into_iter().collect();
        rotated.sort();
        for attr in &rotated {
            *self.epochs.entry(attr.clone()).or_insert(0) += 1;
        }
        for (_, attrs) in self.grants.iter() {
            report.keys_reissued += attrs.iter().filter(|a| rotated.contains(a)).count();
        }
        report.attributes_rotated = rotated;
        report
    }

    /// All holders currently granted at least one attribute.
    pub fn holders(&self) -> impl Iterator<Item = &str> {
        self.grants.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SecureRng {
        SecureRng::seed_from_u64(88)
    }

    fn attrs(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    // ---- policy parsing ----

    #[test]
    fn parse_single_attribute() {
        assert_eq!(
            Policy::parse("doctor").unwrap(),
            Policy::Attr("doctor".into())
        );
    }

    #[test]
    fn parse_and_or_precedence() {
        // AND binds tighter than OR.
        let p = Policy::parse("a OR b AND c").unwrap();
        assert_eq!(
            p,
            Policy::Or(vec![
                Policy::Attr("a".into()),
                Policy::And(vec![Policy::Attr("b".into()), Policy::Attr("c".into())]),
            ])
        );
    }

    #[test]
    fn parse_parentheses_override() {
        let p = Policy::parse("(a OR b) AND c").unwrap();
        assert_eq!(
            p,
            Policy::And(vec![
                Policy::Or(vec![Policy::Attr("a".into()), Policy::Attr("b".into())]),
                Policy::Attr("c".into()),
            ])
        );
    }

    #[test]
    fn parse_threshold() {
        let p = Policy::parse("2 of (a, b, c)").unwrap();
        assert_eq!(
            p,
            Policy::Threshold(
                2,
                vec![
                    Policy::Attr("a".into()),
                    Policy::Attr("b".into()),
                    Policy::Attr("c".into())
                ]
            )
        );
    }

    #[test]
    fn parse_nested_threshold() {
        let p = Policy::parse("2 of (a AND b, c, d OR e)").unwrap();
        assert!(matches!(p, Policy::Threshold(2, ref cs) if cs.len() == 3));
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "AND",
            "a AND",
            "(a",
            "a)",
            "2 of (a)",
            "0 of (a, b)",
            "4 of (a, b)",
            "a ! b",
            "of (a, b)",
        ] {
            assert!(Policy::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_refused_past_the_limit_and_not_before() {
        let nest =
            |depth: usize, open: &str| format!("{}a{}", open.repeat(depth), ")".repeat(depth));
        for open in ["(", "1 of ("] {
            assert!(Policy::parse(&nest(MAX_NESTING, open)).is_ok(), "{open}");
            assert!(
                matches!(
                    Policy::parse(&nest(MAX_NESTING + 1, open)),
                    Err(CryptoError::PolicyParse(why)) if why.contains("deep")
                ),
                "{open}"
            );
        }
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            Policy::parse("a and b").unwrap(),
            Policy::parse("a AND b").unwrap()
        );
        assert_eq!(
            Policy::parse("a or b").unwrap(),
            Policy::parse("a OR b").unwrap()
        );
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for src in [
            "a",
            "(a AND b)",
            "(a OR (b AND c))",
            "2 of (a, b, (c AND d))",
        ] {
            let p = Policy::parse(src).unwrap();
            let reparsed = Policy::parse(&p.to_string()).unwrap();
            assert_eq!(p, reparsed, "{src}");
        }
    }

    #[test]
    fn satisfied_by_tables() {
        let p = Policy::parse("(relative OR painter) AND doctor").unwrap();
        let yes: HashSet<String> = attrs(&["relative", "doctor"]).into_iter().collect();
        let no1: HashSet<String> = attrs(&["relative"]).into_iter().collect();
        let no2: HashSet<String> = attrs(&["doctor"]).into_iter().collect();
        assert!(p.satisfied_by(&yes));
        assert!(!p.satisfied_by(&no1));
        assert!(!p.satisfied_by(&no2));
    }

    #[test]
    fn attributes_collects_leaves() {
        let p = Policy::parse("2 of (a, b AND c, d)").unwrap();
        let got = p.attributes();
        assert_eq!(got.len(), 4);
        assert!(got.contains("a") && got.contains("b") && got.contains("c") && got.contains("d"));
    }

    // ---- encryption / decryption ----

    #[test]
    fn encrypt_decrypt_simple_and() {
        let mut r = rng();
        let mut auth = AbeAuthority::new([1u8; 32]);
        let key = auth.issue_key("alice", &attrs(&["relative", "doctor"]));
        let policy = Policy::parse("relative AND doctor").unwrap();
        let ct = auth.encrypt(&policy, b"secret post", &mut r).unwrap();
        assert_eq!(key.decrypt(&ct).unwrap(), b"secret post");
    }

    #[test]
    fn missing_attribute_cannot_decrypt() {
        let mut r = rng();
        let mut auth = AbeAuthority::new([1u8; 32]);
        let key = auth.issue_key("bob", &attrs(&["relative"]));
        let policy = Policy::parse("relative AND doctor").unwrap();
        let ct = auth.encrypt(&policy, b"secret", &mut r).unwrap();
        assert_eq!(
            key.decrypt(&ct).unwrap_err(),
            CryptoError::PolicyNotSatisfied
        );
    }

    #[test]
    fn or_gate_needs_any_branch() {
        let mut r = rng();
        let mut auth = AbeAuthority::new([2u8; 32]);
        let painter = auth.issue_key("p", &attrs(&["painter"]));
        let relative = auth.issue_key("r", &attrs(&["relative"]));
        let neither = auth.issue_key("n", &attrs(&["stranger"]));
        let policy = Policy::parse("relative OR painter").unwrap();
        let ct = auth.encrypt(&policy, b"m", &mut r).unwrap();
        assert!(painter.decrypt(&ct).is_ok());
        assert!(relative.decrypt(&ct).is_ok());
        assert!(neither.decrypt(&ct).is_err());
    }

    #[test]
    fn threshold_gate_exact_boundary() {
        let mut r = rng();
        let mut auth = AbeAuthority::new([3u8; 32]);
        let two = auth.issue_key("two", &attrs(&["a", "b"]));
        let one = auth.issue_key("one", &attrs(&["a"]));
        let policy = Policy::parse("2 of (a, b, c)").unwrap();
        let ct = auth.encrypt(&policy, b"m", &mut r).unwrap();
        assert!(two.decrypt(&ct).is_ok());
        assert!(one.decrypt(&ct).is_err());
    }

    #[test]
    fn deep_nested_policy() {
        let mut r = rng();
        let mut auth = AbeAuthority::new([4u8; 32]);
        let key = auth.issue_key("k", &attrs(&["friend", "coworker", "runner"]));
        let policy =
            Policy::parse("(friend AND (coworker OR family)) AND 1 of (runner, cyclist)").unwrap();
        let ct = auth.encrypt(&policy, b"deep", &mut r).unwrap();
        assert_eq!(key.decrypt(&ct).unwrap(), b"deep");
    }

    #[test]
    fn revocation_rotates_epochs_and_blocks_new_ciphertexts() {
        let mut r = rng();
        let mut auth = AbeAuthority::new([5u8; 32]);
        let eve = auth.issue_key("eve", &attrs(&["friend"]));
        let alice = auth.issue_key("alice", &attrs(&["friend"]));
        let policy = Policy::parse("friend").unwrap();

        let old_ct = auth.encrypt(&policy, b"old post", &mut r).unwrap();
        assert!(eve.decrypt(&old_ct).is_ok(), "pre-revocation access");

        let report = auth.revoke_user("eve");
        assert_eq!(report.attributes_rotated, vec!["friend".to_string()]);
        assert_eq!(report.keys_reissued, 1); // alice needs a fresh key

        let new_ct = auth.encrypt(&policy, b"new post", &mut r).unwrap();
        // Eve's stale key fails on the new epoch...
        assert!(eve.decrypt(&new_ct).is_err());
        // ...and so does Alice's until re-issued (the survey's re-keying cost).
        assert!(alice.decrypt(&new_ct).is_err());
        let alice2 = auth.issue_key("alice", &attrs(&["friend"]));
        assert_eq!(alice2.decrypt(&new_ct).unwrap(), b"new post");
        // Old ciphertexts remain readable by the revoked key: re-encryption
        // of history is required, exactly as §III-D says.
        assert!(eve.decrypt(&old_ct).is_ok());
    }

    #[test]
    fn revoke_unknown_user_is_noop() {
        let mut auth = AbeAuthority::new([6u8; 32]);
        assert_eq!(auth.revoke_user("ghost"), RevocationReport::default());
    }

    #[test]
    fn ciphertext_metadata() {
        let mut r = rng();
        let mut auth = AbeAuthority::new([7u8; 32]);
        auth.issue_key("x", &attrs(&["a"]));
        let policy = Policy::parse("a AND b").unwrap();
        let ct = auth.encrypt(&policy, b"m", &mut r).unwrap();
        assert_eq!(ct.policy(), &policy);
        let epochs = ct.epochs();
        assert_eq!(epochs.get("a"), Some(&0));
        assert_eq!(epochs.get("b"), Some(&0));
        assert!(ct.size_bytes() > 0);
    }

    #[test]
    fn different_authorities_are_isolated() {
        let mut r = rng();
        let mut auth1 = AbeAuthority::new([8u8; 32]);
        let mut auth2 = AbeAuthority::new([9u8; 32]);
        let key2 = auth2.issue_key("mallory", &attrs(&["friend"]));
        let policy = Policy::parse("friend").unwrap();
        let ct = auth1.encrypt(&policy, b"alice's post", &mut r).unwrap();
        let _ = auth1.issue_key("someone", &attrs(&["friend"]));
        assert!(key2.decrypt(&ct).is_err());
    }
}
