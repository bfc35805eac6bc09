//! N-Triples import and export.
//!
//! [`parse_ntriples`] reads the line-based subset of N-Triples 1.1 that
//! the data model of Def. 1 can hold, one triple per line:
//!
//! * the subject and the predicate are `<iri>`; the object is an `<iri>`
//!   or a literal `"…"`, which a language tag `@[a-zA-Z]+(-[a-zA-Z0-9]+)*`
//!   or a datatype `^^<iri>` may follow;
//! * the triple ends with `.`, which a `# comment` may follow; blank
//!   lines and comment lines are skipped;
//! * a literal may use the escapes `\t \b \n \r \f \" \' \\`, `\uXXXX`
//!   and `\UXXXXXXXX`; the last two must name a Unicode scalar value (no
//!   surrogate).
//!
//! IRIs are taken verbatim between `<` and `>`, with no escapes decoded;
//! blank nodes are not accepted. A literal's annotation stays part of its
//! text (`"hallo"@de` is the literal node `hallo@de`), which is all the
//! dual-simulation machinery needs: literals are opaque nodes.
//!
//! The scan allocates nothing per term. IRIs, and literals with neither
//! an escape nor an annotation, are slices of the input; any other
//! literal is built in one buffer that every line reuses. The names are
//! copied once, into the dictionary ([`crate::Vocabulary`]).
//!
//! [`scan_ntriples_line`] is that scan for one line, for readers of
//! other line formats built on N-Triples (a signed update stream, say),
//! so they accept exactly the lines [`parse_ntriples`] accepts.
//!
//! [`write_ntriples`] writes `<s> <p> <o> .` and `<s> <p> "literal" .`
//! lines, escaping `"`, `\`, newline, tab and carriage return in
//! literals, and [`parse_ntriples`] reads them back to the same triples.

use crate::{GraphDb, GraphDbBuilder, GraphError, NodeKind};
use std::fmt::Write as _;

/// Parses an N-Triples document into a [`GraphDb`]. Node and label ids
/// are given out in first occurrence, the subject before the object, as
/// [`GraphDbBuilder::add_triple`] gives them.
///
/// # Errors
/// [`GraphError::Parse`] with the 1-based line number for a line outside
/// the accepted subset (see the module docs), and
/// [`GraphError::KindConflict`] for a name used both as an IRI and as a
/// literal.
pub fn parse_ntriples(input: &str) -> Result<GraphDb, GraphError> {
    let mut builder = GraphDbBuilder::new();
    let mut decoded = String::new();
    for (idx, raw) in input.lines().enumerate() {
        let line = raw.trim_start();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let t = scan_ntriples_line(line, idx + 1, &mut decoded)?;
        match t.object_kind {
            NodeKind::Iri => builder.add_triple(t.subject, t.predicate, t.object)?,
            NodeKind::Literal => builder.add_attribute(t.subject, t.predicate, t.object)?,
        }
    }
    Ok(builder.finish())
}

/// One triple of an N-Triples line, as [`scan_ntriples_line`] reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScannedTriple<'a> {
    /// The subject IRI, without its brackets.
    pub subject: &'a str,
    /// The predicate IRI, without its brackets.
    pub predicate: &'a str,
    /// The object: an IRI without its brackets, or a literal's text with
    /// its escapes decoded and its annotation kept.
    pub object: &'a str,
    /// Whether the object is an IRI or a literal (the subject is always
    /// an IRI).
    pub object_kind: NodeKind,
}

/// Scans one N-Triples line that is neither blank nor a comment, in the
/// subset and with the decoding the module docs describe. A literal that
/// has to be built is built in `scratch`, which the caller may reuse for
/// every line; every other term is a slice of `line`.
///
/// # Errors
/// [`GraphError::Parse`] carrying `line_no` for a line outside the
/// accepted subset.
pub fn scan_ntriples_line<'a>(
    line: &'a str,
    line_no: usize,
    scratch: &'a mut String,
) -> Result<ScannedTriple<'a>, GraphError> {
    scan_triple(line, scratch).map_err(|message| GraphError::Parse {
        line: line_no,
        message,
    })
}

/// Serializes a [`GraphDb`] as N-Triples, one triple per line, sorted by
/// `(label, subject, object)` identifier for determinism.
pub fn write_ntriples(db: &GraphDb) -> String {
    let mut out = String::new();
    for t in db.triples() {
        let s = db.node_name(t.s);
        let p = db.label_name(t.p);
        match db.node_kind(t.o) {
            NodeKind::Iri => {
                let _ = writeln!(out, "<{s}> <{p}> <{}> .", db.node_name(t.o));
            }
            NodeKind::Literal => {
                let _ = writeln!(out, "<{s}> <{p}> \"{}\" .", escape(db.node_name(t.o)));
            }
        }
    }
    out
}

/// A scan step's result; the error is the message of a
/// [`GraphError::Parse`].
type Scan<T> = Result<T, String>;

/// Scans one non-blank, non-comment line into its three terms. A literal
/// that must be built is built in `decoded`.
fn scan_triple<'a>(line: &'a str, decoded: &'a mut String) -> Scan<ScannedTriple<'a>> {
    let mut rest = line;
    let subject = take_iri(&mut rest)?;
    let predicate = take_iri(&mut rest)?;
    rest = rest.trim_start();
    let (object, object_kind) = match rest.strip_prefix('"') {
        Some(body) => {
            let (literal, tail) = take_literal(body, decoded)?;
            rest = tail;
            (literal, NodeKind::Literal)
        }
        None => (take_iri(&mut rest)?, NodeKind::Iri),
    };
    expect_end(rest)?;
    Ok(ScannedTriple {
        subject,
        predicate,
        object,
        object_kind,
    })
}

fn take_iri<'a>(rest: &mut &'a str) -> Scan<&'a str> {
    let trimmed = rest.trim_start();
    let Some(body) = trimmed.strip_prefix('<') else {
        return Err(format!("expected '<', found {:?}", head(trimmed)));
    };
    let end = body
        .find('>')
        .ok_or_else(|| "unterminated IRI".to_owned())?;
    *rest = &body[end + 1..];
    Ok(&body[..end])
}

/// Scans a literal whose opening quote is already consumed: its text,
/// with the escapes decoded and the annotation appended, and what
/// follows it. The text is a slice of `body` unless it has an escape or
/// an annotation; then it is built in `decoded`.
fn take_literal<'a>(body: &'a str, decoded: &'a mut String) -> Scan<(&'a str, &'a str)> {
    let bytes = body.as_bytes();
    let special = |from: usize| {
        bytes[from..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map(|k| from + k)
            .ok_or_else(|| "unterminated literal".to_owned())
    };
    let mut at = special(0)?;
    let escaped = bytes[at] == b'\\';
    if escaped {
        decoded.clear();
        let mut from = 0;
        while bytes[at] == b'\\' {
            decoded.push_str(&body[from..at]);
            from = unescape(body, at + 1, decoded)?;
            at = special(from)?;
        }
        decoded.push_str(&body[from..at]);
    }
    let tail = &body[at + 1..];
    let annotation = annotation_len(tail)?;
    if !escaped {
        if annotation == 0 {
            return Ok((&body[..at], tail));
        }
        decoded.clear();
        decoded.push_str(&body[..at]);
    }
    decoded.push_str(&tail[..annotation]);
    Ok((decoded.as_str(), &tail[annotation..]))
}

/// Decodes the escape whose backslash precedes `body[from]` into `out`
/// and returns where the literal goes on.
fn unescape(body: &str, from: usize, out: &mut String) -> Scan<usize> {
    let Some(&c) = body.as_bytes().get(from) else {
        return Err("dangling escape at end of literal".into());
    };
    let decoded = match c {
        b't' => '\t',
        b'b' => '\u{8}',
        b'n' => '\n',
        b'r' => '\r',
        b'f' => '\u{c}',
        b'"' => '"',
        b'\'' => '\'',
        b'\\' => '\\',
        b'u' | b'U' => {
            let digits = if c == b'u' { 4 } else { 8 };
            let hex = body
                .get(from + 1..from + 1 + digits)
                .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                .ok_or_else(|| format!("\\{} needs {digits} hex digits", char::from(c)))?;
            let value = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
            out.push(char::from_u32(value).ok_or_else(|| {
                format!("\\{}{hex} is not a Unicode scalar value", char::from(c))
            })?);
            return Ok(from + 1 + digits);
        }
        _ => {
            let other = body[from..].chars().next().unwrap_or_default();
            return Err(format!("unknown escape \\{other}"));
        }
    };
    out.push(decoded);
    Ok(from + 1)
}

/// Length of the `@lang` or `^^<iri>` annotation that starts `tail`; 0
/// if there is none.
fn annotation_len(tail: &str) -> Scan<usize> {
    let bytes = tail.as_bytes();
    let run =
        |from: usize, pred: fn(&u8) -> bool| bytes[from..].iter().take_while(|b| pred(b)).count();
    if bytes.first() == Some(&b'@') {
        let letters = run(1, u8::is_ascii_alphabetic);
        if letters == 0 {
            return Err(format!("bad language tag {:?}", head(tail)));
        }
        let mut end = 1 + letters;
        while bytes.get(end) == Some(&b'-') {
            let sub = run(end + 1, u8::is_ascii_alphanumeric);
            if sub == 0 {
                break;
            }
            end += 1 + sub;
        }
        Ok(end)
    } else if tail.starts_with("^^<") {
        tail.find('>')
            .map(|end| end + 1)
            .ok_or_else(|| "unterminated datatype IRI".to_owned())
    } else {
        Ok(0)
    }
}

/// Accepts what follows the object: `.`, then nothing but whitespace or
/// a comment.
fn expect_end(rest: &str) -> Scan<()> {
    let t = rest.trim_start();
    let Some(after) = t.strip_prefix('.') else {
        return Err(format!("expected terminating '.', found {:?}", head(t)));
    };
    let after = after.trim_start();
    if after.is_empty() || after.starts_with('#') {
        Ok(())
    } else {
        Err(format!("unexpected {:?} after '.'", head(after)))
    }
}

/// The first 12 bytes of `s` for an error message, cut back to a char
/// boundary.
fn head(s: &str) -> &str {
    let mut end = s.len().min(12);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_object_and_literal_triples() {
        let db = parse_ntriples(
            "# the Saint John example of Fig. 1(a)\n\
             <H. Saltzman> <born_in> <Saint John> .\n\
             <Saint John> <population> \"70063\" .\n",
        )
        .unwrap();
        assert_eq!(db.num_triples(), 2);
        let sj = db.node_id("Saint John").unwrap();
        assert_eq!(db.node_kind(sj), NodeKind::Iri);
        let lit = db.node_id("70063").unwrap();
        assert_eq!(db.node_kind(lit), NodeKind::Literal);
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        let db = parse_ntriples("\n# nothing\n   \n<a> <p> <b> .\n").unwrap();
        assert_eq!(db.num_triples(), 1);
    }

    #[test]
    fn literal_escapes_round_trip() {
        let mut b = GraphDbBuilder::new();
        b.add_attribute("s", "p", "line1\nline2 \"quoted\" \\ end")
            .unwrap();
        let db = b.finish();
        let text = write_ntriples(&db);
        let db2 = parse_ntriples(&text).unwrap();
        assert_eq!(db2.num_triples(), 1);
        assert!(db2.node_id("line1\nline2 \"quoted\" \\ end").is_some());
    }

    #[test]
    fn language_tags_and_datatypes_are_preserved() {
        let db = parse_ntriples(
            "<a> <p> \"hallo\"@de .\n\
             <a> <q> \"1\"^^<http://www.w3.org/2001/XMLSchema#int> .\n",
        )
        .unwrap();
        assert!(db.node_id("hallo@de").is_some());
        assert!(db
            .node_id("1^^<http://www.w3.org/2001/XMLSchema#int>")
            .is_some());
    }

    #[test]
    fn round_trip_is_stable() {
        let text = "<a> <p> <b> .\n<a> <q> \"lit\" .\n<b> <p> <c> .\n";
        let db = parse_ntriples(text).unwrap();
        let text2 = write_ntriples(&db);
        let db2 = parse_ntriples(&text2).unwrap();
        // Identifiers may be assigned in a different order, so compare at
        // the name level.
        let names = |db: &GraphDb| {
            let mut v: Vec<(String, String, String)> = db
                .triples()
                .map(|t| {
                    (
                        db.node_name(t.s).to_owned(),
                        db.label_name(t.p).to_owned(),
                        db.node_name(t.o).to_owned(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(&db), names(&db2));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_ntriples("<a> <p> <b> .\nnot a triple\n").unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unterminated_literal_is_an_error() {
        assert!(matches!(
            parse_ntriples("<a> <p> \"oops .\n"),
            Err(GraphError::Parse { .. })
        ));
    }

    fn parse_error(text: &str) -> (usize, String) {
        match parse_ntriples(text) {
            Err(GraphError::Parse { line, message }) => (line, message),
            other => panic!("expected a parse error for {text:?}, got {other:?}"),
        }
    }

    #[test]
    fn malformed_non_ascii_input_is_an_error_not_a_panic() {
        assert_eq!(parse_error("aéééééééé .\n").0, 1);
        assert_eq!(parse_error("<a> <p> <b> .\n<a> <p> <b> xéééééééé\n").0, 2);
        // Byte 12 falls inside the sixth 'é': the excerpt stops before it.
        assert_eq!(head("aéééééééé"), "aééééé");
    }

    #[test]
    fn language_tags_end_where_the_grammar_says() {
        let db = parse_ntriples(
            "<a> <p> \"x\"@en.\n\
             <a> <p> \"y\"@en-US .\n\
             <a> <p> \"z\"@de-1996.\n",
        )
        .unwrap();
        for name in ["x@en", "y@en-US", "z@de-1996"] {
            assert_eq!(db.node_kind(db.node_id(name).unwrap()), NodeKind::Literal);
        }
        for bad in [
            "<a> <p> \"x\"@ .\n",
            "<a> <p> \"x\"@en-.\n",
            "<a> <p> \"x\"@1 .\n",
        ] {
            assert_eq!(parse_error(bad).0, 1, "{bad}");
        }
    }

    #[test]
    fn comments_may_follow_the_dot() {
        let db = parse_ntriples(
            "<a> <p> <b> . # comment\n\
             <a> <q> \"v\" .#\n\
             <b> <p> <c>.\t# another\n",
        )
        .unwrap();
        assert_eq!(db.num_triples(), 3);
        let (line, message) = parse_error("<a> <p> <b> . <c>\n");
        assert_eq!(line, 1);
        assert!(message.contains("after '.'"), "{message}");
    }

    #[test]
    fn every_n_triples_escape_is_decoded() {
        let db = parse_ntriples(
            "<a> <p> \"caf\\u00e9 \\U0001F600\" .\n\
             <a> <p> \"\\b\\f\\'\\t\\n\\r\\\"\\\\\" .\n\
             <a> <p> \"\\u0041\"@en .\n",
        )
        .unwrap();
        assert!(db.node_id("café 😀").is_some());
        assert!(db.node_id("\u{8}\u{c}'\t\n\r\"\\").is_some());
        assert!(db.node_id("A@en").is_some());
    }

    #[test]
    fn bad_hex_escapes_are_errors_with_line_numbers() {
        for bad in [
            "\\uD800",
            "\\UDFFF0000",
            "\\U00110000",
            "\\u12G4",
            "\\u+123",
            "\\u12",
            "\\U0001F60",
            "\\x41",
            "\\é",
        ] {
            let text = format!("<a> <p> <b> .\n<a> <p> \"{bad}\" .\n");
            assert_eq!(parse_error(&text).0, 2, "{bad}");
        }
    }
}
