//! Abstract syntax of the query language S.

use std::collections::BTreeSet;
use std::fmt;

/// A subject or object position of a triple pattern.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A query variable (`?name` in concrete syntax, `name` here).
    Var(String),
    /// A constant database object.
    Iri(String),
    /// A constant literal value.
    Literal(String),
}

impl Term {
    /// The variable name, if this term is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }

    /// `true` iff the term is a constant (IRI or literal).
    pub fn is_constant(&self) -> bool {
        !matches!(self, Term::Var(_))
    }
}

/// A triple pattern `(s, p, o)` with a *constant* predicate.
///
/// Dual simulation operates over a fixed edge alphabet `Σ`, so predicates
/// must be constants; the parser rejects variable predicates. Subject and
/// object may be variables or constants (Sect. 4.5 discusses constants).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TriplePattern {
    /// Subject term.
    pub s: Term,
    /// Predicate (edge label), always constant.
    pub p: String,
    /// Object term.
    pub o: Term,
}

impl TriplePattern {
    /// Constructs a triple pattern from already-built terms.
    pub fn new(s: Term, p: impl Into<String>, o: Term) -> Self {
        TriplePattern { s, p: p.into(), o }
    }

    /// `vars(t)`: the set of variables occurring in the pattern.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.s.as_var().into_iter().chain(self.o.as_var())
    }
}

/// Shorthand constructor used pervasively in tests and generators:
/// `"?x"` becomes a variable, `"\"42\""` a literal, anything else an IRI.
///
/// ```
/// use dualsim_query::{tp, Term};
/// let t = tp("?director", "directed", "?movie");
/// assert_eq!(t.s, Term::Var("director".into()));
/// let c = tp("?m", "type", "ub:Publication");
/// assert_eq!(c.o, Term::Iri("ub:Publication".into()));
/// ```
pub fn tp(s: &str, p: &str, o: &str) -> TriplePattern {
    TriplePattern::new(parse_term(s), p, parse_term(o))
}

fn parse_term(text: &str) -> Term {
    if let Some(v) = text.strip_prefix('?') {
        Term::Var(v.to_owned())
    } else if text.len() >= 2 && text.starts_with('"') && text.ends_with('"') {
        Term::Literal(text[1..text.len() - 1].to_owned())
    } else {
        Term::Iri(text.to_owned())
    }
}

/// A query of the language S (Sect. 4.3), extended with `UNION`.
///
/// The paper's grammar is `Q ::= G | Q AND Q | Q OPTIONAL Q` over basic
/// graph patterns `G`; `UNION` is permitted at any position and removed
/// up front by [`Query::union_normal_form`] (Prop. 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// A basic graph pattern: a set of triple patterns, all mandatory.
    Bgp(Vec<TriplePattern>),
    /// Conjunction — the inner join of both result sets on compatible
    /// matches (Sect. 4.2).
    And(Box<Query>, Box<Query>),
    /// Optional pattern — the left-outer join (Sect. 4.3).
    Optional(Box<Query>, Box<Query>),
    /// Union of result sets (Sect. 4.2).
    Union(Box<Query>, Box<Query>),
}

impl Query {
    /// Builds a BGP query.
    pub fn bgp(patterns: Vec<TriplePattern>) -> Query {
        Query::Bgp(patterns)
    }

    /// `self AND other`.
    pub fn and(self, other: Query) -> Query {
        Query::And(Box::new(self), Box::new(other))
    }

    /// `self OPTIONAL other`.
    pub fn optional(self, other: Query) -> Query {
        Query::Optional(Box::new(self), Box::new(other))
    }

    /// `self UNION other`.
    pub fn union(self, other: Query) -> Query {
        Query::Union(Box::new(self), Box::new(other))
    }

    /// `vars(Q)`: every variable occurring anywhere in the query.
    pub fn vars(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            Query::Bgp(tps) => {
                for t in tps {
                    out.extend(t.vars());
                }
            }
            Query::And(a, b) | Query::Optional(a, b) | Query::Union(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Sorted list of all variable names (owned), the canonical variable
    /// order used by the evaluation engines.
    pub fn var_names(&self) -> Vec<String> {
        self.vars().into_iter().map(str::to_owned).collect()
    }

    /// `mand(Q)`: the variables with a mandatory occurrence (Sect. 4.3):
    ///
    /// * `mand(G) = vars(G)`
    /// * `mand(Q1 AND Q2) = mand(Q1) ∪ mand(Q2)`
    /// * `mand(Q1 OPTIONAL Q2) = mand(Q1)`
    /// * `mand(Q1 UNION Q2) = mand(Q1) ∩ mand(Q2)` — a variable is certain
    ///   to be bound only if both branches bind it (used by the engines
    ///   for join keys; the paper's `mand` is defined on union-free
    ///   queries where this case does not arise).
    pub fn mand(&self) -> BTreeSet<&str> {
        match self {
            Query::Bgp(_) => self.vars(),
            Query::And(a, b) => a.mand().union(&b.mand()).copied().collect(),
            Query::Optional(a, _) => a.mand(),
            Query::Union(a, b) => a.mand().intersection(&b.mand()).copied().collect(),
        }
    }

    /// `true` iff no `UNION` occurs in the query, i.e. the query lies in
    /// the language S the SOI construction handles directly.
    pub fn is_union_free(&self) -> bool {
        match self {
            Query::Bgp(_) => true,
            Query::And(a, b) | Query::Optional(a, b) => a.is_union_free() && b.is_union_free(),
            Query::Union(..) => false,
        }
    }

    /// Number of triple patterns in the query.
    pub fn num_triple_patterns(&self) -> usize {
        match self {
            Query::Bgp(tps) => tps.len(),
            Query::And(a, b) | Query::Optional(a, b) | Query::Union(a, b) => {
                a.num_triple_patterns() + b.num_triple_patterns()
            }
        }
    }

    /// The well-designedness check of Pérez et al. (Sect. 4.5): for every
    /// sub-pattern `Q1 OPTIONAL Q2` and every variable `v ∈ vars(Q2)` that
    /// also occurs *outside* the whole optional sub-pattern, `v` must
    /// occur in `Q1`. Query (X3) of the paper is the canonical
    /// non-well-designed example.
    ///
    /// The condition is defined on union-free patterns, so a query with
    /// `UNION` is well designed iff every branch of its
    /// [`Query::union_normal_form`] is: on the un-normalized tree a
    /// variable that only one `UNION` branch of `Q1` binds would count as
    /// occurring in `Q1`.
    ///
    /// The dual-simulation machinery does not require well-designedness —
    /// this predicate exists so workloads and experiments can report it,
    /// and so pruned evaluation can refuse (or warn about) queries whose
    /// result set pruning may change.
    pub fn is_well_designed(&self) -> bool {
        fn check(q: &Query, outside: &BTreeSet<&str>) -> bool {
            match q {
                Query::Bgp(_) => true,
                Query::And(a, b) => {
                    let mut oa = outside.clone();
                    oa.extend(b.vars());
                    let mut ob = outside.clone();
                    ob.extend(a.vars());
                    check(a, &oa) && check(b, &ob)
                }
                Query::Union(a, b) => check(a, outside) && check(b, outside),
                Query::Optional(a, b) => {
                    let va = a.vars();
                    let cond = b
                        .vars()
                        .iter()
                        .all(|v| !outside.contains(v) || va.contains(v));
                    let mut oa = outside.clone();
                    oa.extend(b.vars());
                    let mut ob = outside.clone();
                    ob.extend(a.vars());
                    cond && check(a, &oa) && check(b, &ob)
                }
            }
        }
        self.union_normal_form()
            .iter()
            .all(|branch| check(branch, &BTreeSet::new()))
    }

    /// Strips all `OPTIONAL` operators, keeping only the mandatory core
    /// (used to compare against the Ma et al. baseline on BGPs, which is
    /// how the paper prepares queries B0–B19 for Table 2), and flattens
    /// `AND` into a single BGP. `UNION` keeps both branches joined, which
    /// over-approximates but is only used for workload preparation.
    pub fn mandatory_core(&self) -> Vec<TriplePattern> {
        let mut out = Vec::new();
        fn walk(q: &Query, out: &mut Vec<TriplePattern>) {
            match q {
                Query::Bgp(tps) => out.extend(tps.iter().cloned()),
                Query::And(a, b) | Query::Union(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Query::Optional(a, _) => walk(a, out),
            }
        }
        walk(self, &mut out);
        out
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "?{v}"),
            Term::Iri(iri) => write!(f, "<{iri}>"),
            Term::Literal(l) => write!(f, "\"{}\"", l.replace('\\', "\\\\").replace('"', "\\\"")),
        }
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <{}> {} .", self.s, self.p, self.o)
    }
}

/// Serializes the query in the concrete syntax accepted by
/// [`crate::parse`]; `parse(q.to_string())` reconstructs the same AST
/// (a property-tested round trip).
impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT * WHERE ")?;
        self.fmt_group(f)
    }
}

impl Query {
    fn fmt_group(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ ")?;
        self.fmt_inner(f)?;
        write!(f, "}}")
    }

    fn fmt_inner(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Bgp(tps) => {
                for t in tps {
                    write!(f, "{t} ")?;
                }
                Ok(())
            }
            Query::And(a, b) => {
                a.fmt_group(f)?;
                write!(f, " ")?;
                b.fmt_group(f)?;
                write!(f, " ")
            }
            Query::Optional(a, b) => {
                a.fmt_group(f)?;
                write!(f, " OPTIONAL ")?;
                b.fmt_group(f)?;
                write!(f, " ")
            }
            Query::Union(a, b) => {
                a.fmt_group(f)?;
                write!(f, " UNION ")?;
                b.fmt_group(f)?;
                write!(f, " ")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Query (X1) of the paper.
    fn x1() -> Query {
        Query::bgp(vec![
            tp("?director", "directed", "?movie"),
            tp("?director", "worked_with", "?coworker"),
        ])
    }

    /// Query (X2): (X1) with the coworker part optional.
    fn x2() -> Query {
        Query::bgp(vec![tp("?director", "directed", "?movie")]).optional(Query::bgp(vec![tp(
            "?director",
            "worked_with",
            "?coworker",
        )]))
    }

    /// Query (X3): ({(v1,a,v2)} OPTIONAL {(v3,b,v2)}) AND {(v3,c,v4)}.
    fn x3() -> Query {
        Query::bgp(vec![tp("?v1", "a", "?v2")])
            .optional(Query::bgp(vec![tp("?v3", "b", "?v2")]))
            .and(Query::bgp(vec![tp("?v3", "c", "?v4")]))
    }

    #[test]
    fn vars_collects_all_variables() {
        assert_eq!(
            x1().vars().into_iter().collect::<Vec<_>>(),
            vec!["coworker", "director", "movie"]
        );
        assert_eq!(x3().vars().len(), 4);
    }

    #[test]
    fn mand_follows_the_paper_definition() {
        // mand(X2) = vars of the mandatory part only.
        let x2 = x2();
        let mand = x2.mand();
        assert!(mand.contains("director") && mand.contains("movie"));
        assert!(!mand.contains("coworker"));
        // mand(X3): v3 is mandatory through the AND's right clause.
        let x3 = x3();
        let mand3 = x3.mand();
        assert!(mand3.contains("v1") && mand3.contains("v2"));
        assert!(mand3.contains("v3") && mand3.contains("v4"));
    }

    #[test]
    fn x3_is_not_well_designed_but_x1_x2_are() {
        assert!(x1().is_well_designed());
        assert!(x2().is_well_designed());
        // v3 occurs in the optional part and outside it, but not in the
        // mandatory left-hand side of its OPTIONAL (Sect. 4.5).
        assert!(!x3().is_well_designed());
    }

    #[test]
    fn nested_optionals_well_designedness() {
        // (P1 OPT P2) OPT P3 with y in all three parts: well designed.
        let p = Query::bgp(vec![tp("?y", "a", "?u")])
            .optional(Query::bgp(vec![tp("?y", "b", "?w")]))
            .optional(Query::bgp(vec![tp("?y", "c", "?z")]));
        assert!(p.is_well_designed());
        // R1 OPT (R2 OPT R3) with z only in R2 and R3 and a fresh variable
        // linking to R1: still well designed (z does not occur outside the
        // inner optional pattern's scope chain).
        let r = Query::bgp(vec![tp("?x", "a", "?x2")]).optional(
            Query::bgp(vec![tp("?z", "b", "?x")]).optional(Query::bgp(vec![tp("?z", "c", "?w")])),
        );
        assert!(r.is_well_designed());
        // But if z also occurs in R1 while missing from R2's mandatory
        // side of the innermost OPTIONAL, it is not.
        let bad = Query::bgp(vec![tp("?x", "a", "?z")]).optional(
            Query::bgp(vec![tp("?x", "b", "?w")]).optional(Query::bgp(vec![tp("?z", "c", "?w2")])),
        );
        assert!(!bad.is_well_designed());
    }

    #[test]
    fn well_designedness_is_judged_per_union_branch() {
        // { {A UNION B} OPTIONAL C } { {D UNION E} OPTIONAL F } — the
        // PROPTEST_SEED=77 query of `soundness_props`, on which pruned
        // evaluation lost half the rows. ?v1 occurs in C and in E but
        // only B, not A, binds it: the branch (A OPT C) AND (E OPT F) is
        // not well designed, so the query is not.
        let a = Query::bgp(vec![tp("n1", "p0", "?v0")]);
        let b = Query::bgp(vec![tp("?v2", "p0", "?v1"), tp("?v2", "p0", "?v0")]);
        let c = Query::bgp(vec![tp("?v1", "p1", "?v1")]);
        let d = Query::bgp(vec![tp("?v3", "p0", "?v3")]);
        let e = Query::bgp(vec![tp("?v0", "p0", "?v3"), tp("?v1", "p2", "?v0")]);
        let f = Query::bgp(vec![tp("?v0", "p0", "n2")]);
        let q = a
            .clone()
            .union(b.clone())
            .optional(c.clone())
            .and(d.clone().union(e.clone()).optional(f.clone()));
        assert!(!q.is_well_designed());
        let bad_branch = a.clone().optional(c.clone()).and(e.optional(f));
        assert!(!bad_branch.is_well_designed());
        // With E gone nothing outside the first OPTIONAL mentions ?v1.
        assert!(a.union(b).optional(c).and(d).is_well_designed());
    }

    #[test]
    fn union_free_detection() {
        assert!(x3().is_union_free());
        let u = x1().union(x2());
        assert!(!u.is_union_free());
    }

    #[test]
    fn mandatory_core_strips_optionals() {
        let core = x2().mandatory_core();
        assert_eq!(core, vec![tp("?director", "directed", "?movie")]);
        let core3 = x3().mandatory_core();
        assert_eq!(core3.len(), 2);
    }

    #[test]
    fn tp_shorthand_distinguishes_term_kinds() {
        let t = tp("?s", "population", "\"70063\"");
        assert_eq!(t.o, Term::Literal("70063".into()));
        let c = tp("Saint John", "population", "?p");
        assert_eq!(c.s, Term::Iri("Saint John".into()));
    }

    #[test]
    fn display_is_parseable_sparql() {
        let text = x3().to_string();
        assert!(text.starts_with("SELECT * WHERE {"));
        assert!(text.contains("OPTIONAL"));
    }

    #[test]
    fn num_triple_patterns_counts_leaves() {
        assert_eq!(x1().num_triple_patterns(), 2);
        assert_eq!(x3().num_triple_patterns(), 3);
        assert_eq!(x1().union(x3()).num_triple_patterns(), 5);
    }
}
