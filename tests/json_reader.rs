//! The JSON reader under differential and hostile input.
//!
//! `serde_json::from_str::<T>` streams typed values straight from the
//! tokens; `T::from_value(&from_str::<Value>(s)?)` goes through the value
//! tree. The two must agree on every document: the same value when both
//! parse, the same error text for a document with one defect, and Ok
//! versus Err on anything at all. Neither may panic or overflow the stack.

use kmatch_forensics::{bundle_json, validate_bundle, BundleInputs};
use kmatch_obs::{RunReport, SolverMetrics};
use kmatch_prefs::serde_support::{BipartiteDto, KPartiteDto, PrefDeltaDto, RoommatesDto};
use kmatch_prefs::GenderId;
use proptest::prelude::*;
use proptest::CaseRng;
use serde::{Deserialize, Serialize, Value};

/// The typed path and the tree path on `s`, each rendered through
/// `to_value` and `Debug` so that `-0` and `0` stay apart.
fn both<T: Deserialize + Serialize>(s: &str) -> (Result<String, String>, Result<String, String>) {
    let render = |t: T| format!("{:?}", t.to_value());
    let typed = serde_json::from_str::<T>(s)
        .map(render)
        .map_err(|e| e.to_string());
    let tree = serde_json::from_str::<Value>(s)
        .and_then(|v| T::from_value(&v))
        .map(render)
        .map_err(|e| e.to_string());
    (typed, tree)
}

/// `s` parses to the same value, or fails with the same text, on both paths.
fn assert_same<T: Deserialize + Serialize>(s: &str) -> Result<String, String> {
    let (typed, tree) = both::<T>(s);
    assert_eq!(typed, tree, "typed and tree paths differ on {s:?}");
    typed
}

/// Ok on one path exactly when Ok on the other, for every type read.
fn assert_agree_all(s: &str) {
    fn agree<T: Deserialize + Serialize>(s: &str) {
        let (typed, tree) = both::<T>(s);
        assert_eq!(
            typed.is_ok(),
            tree.is_ok(),
            "Ok/Err differ on {s:?}: typed {typed:?}, tree {tree:?}"
        );
        if typed.is_ok() {
            assert_eq!(typed, tree, "values differ on {s:?}");
        }
    }
    agree::<KPartiteDto>(s);
    agree::<BipartiteDto>(s);
    agree::<RoommatesDto>(s);
    agree::<PrefDeltaDto>(s);
    agree::<Vec<Vec<u32>>>(s);
    agree::<Value>(s);
    agree::<GenderId>(s);
}

/// Free whitespace, or none at all in a `dense` render: a dense array
/// of plain integers is read as one integer run, while any whitespace
/// between elements routes the reader around the run.
fn ws(rng: &mut CaseRng, dense: bool, out: &mut String) {
    if dense {
        return;
    }
    for _ in 0..rng.bounded(3) {
        out.push([' ', '\n', '\t', '\r'][rng.bounded(4) as usize]);
    }
}

/// A small value of an arbitrary shape, for unknown and duplicate keys.
fn junk(rng: &mut CaseRng, depth: u32) -> Value {
    match rng.bounded(if depth == 0 { 4 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.bounded(2) == 1),
        2 => Value::Number(rng.bounded(1000) as f64 - 500.0),
        3 => Value::String("x\"\u{e9}".to_string()),
        4 => Value::Array((0..rng.bounded(3)).map(|_| junk(rng, depth - 1)).collect()),
        _ => Value::Object(vec![("k".to_string(), junk(rng, depth - 1))]),
    }
}

fn render_key(key: &str, rng: &mut CaseRng, out: &mut String) {
    if rng.bounded(4) == 0 {
        // The same key with its first character escaped.
        let mut chars = key.chars();
        let first = chars.next().expect("keys are non-empty");
        out.push_str(&format!("\"\\u{:04x}{}\"", first as u32, chars.as_str()));
    } else {
        out.push_str(&serde_json::to_string(&key).expect("string renders"));
    }
}

/// Render `v` as JSON with free whitespace (none when `dense`); every
/// object gets its fields shuffled, unknown keys mixed in and junk
/// duplicates of its keys appended, none of which changes what it reads
/// as.
fn render(v: &Value, rng: &mut CaseRng, dense: bool, out: &mut String) {
    ws(rng, dense, out);
    match v {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, rng, dense, out);
            }
            ws(rng, dense, out);
            out.push(']');
        }
        Value::Object(fields) => {
            let mut entries: Vec<(String, Value)> = fields.clone();
            for i in (1..entries.len()).rev() {
                entries.swap(i, rng.bounded(i as u64 + 1) as usize);
            }
            for _ in 0..rng.bounded(3) {
                let at = rng.bounded(entries.len() as u64 + 1) as usize;
                entries.insert(at, ("unknown_key".to_string(), junk(rng, 2)));
            }
            for (key, _) in fields {
                if rng.bounded(3) == 0 {
                    entries.push((key.clone(), junk(rng, 2)));
                }
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, dense, out);
                render_key(key, rng, out);
                ws(rng, dense, out);
                out.push(':');
                render(item, rng, dense, out);
            }
            ws(rng, dense, out);
            out.push('}');
        }
        leaf => out.push_str(&serde_json::to_string(leaf).expect("leaf renders")),
    }
    ws(rng, dense, out);
}

fn rows(rng: &mut CaseRng, count: usize, len: usize) -> Vec<Vec<u32>> {
    (0..count)
        .map(|_| (0..len).map(|_| rng.bounded(1 << 20) as u32).collect())
        .collect()
}

fn kpartite(rng: &mut CaseRng) -> KPartiteDto {
    let (k, n) = (1 + rng.bounded(3) as usize, rng.bounded(3) as usize);
    KPartiteDto {
        k,
        n,
        lists: (0..k)
            .map(|_| (0..n).map(|_| rows(rng, k, n)).collect())
            .collect(),
    }
}

/// Renders of every DTO, a nested list, a bare value and a gender id.
fn check_all_shapes(rng: &mut CaseRng) {
    type Read = fn(&str) -> Result<String, String>;
    let n = rng.bounded(4) as usize;
    let docs: [(Value, Read); 6] = [
        (kpartite(rng).to_value(), assert_same::<KPartiteDto>),
        (
            BipartiteDto {
                n,
                proposers: rows(rng, n, n),
                responders: rows(rng, n, n),
            }
            .to_value(),
            assert_same::<BipartiteDto>,
        ),
        (
            RoommatesDto {
                n,
                lists: rows(rng, n, n.saturating_sub(1)),
            }
            .to_value(),
            assert_same::<RoommatesDto>,
        ),
        (
            PrefDeltaDto {
                op: "set_row".to_string(),
                side: "resp\u{f6}nder\n".to_string(),
                row: rng.bounded(100) as u32,
                prefs: rows(rng, 1, n).remove(0),
                a: rng.bounded(1 << 31) as u32,
                b: 0,
                from: 3,
                to: u32::MAX,
            }
            .to_value(),
            assert_same::<PrefDeltaDto>,
        ),
        (rows(rng, n, n).to_value(), assert_same::<Vec<Vec<u32>>>),
        (
            Value::Number(rng.bounded(1 << 16) as f64),
            assert_same::<GenderId>,
        ),
    ];
    for (value, read) in docs {
        let mut text = String::new();
        let dense = rng.bounded(2) == 0;
        render(&value, rng, dense, &mut text);
        assert_eq!(read(&text), Ok(format!("{value:?}")), "{text}");
        assert_same::<Value>(&text).expect("every render is valid JSON");
        assert_agree_all(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    fn typed_path_matches_tree_path(case in 0u32..u32::MAX) {
        let mut rng = CaseRng::for_case("typed_path_matches_tree_path", case);
        check_all_shapes(&mut rng);
    }
}

#[test]
fn first_key_wins_and_unknown_keys_are_skipped() {
    let doc = r#"{"lists": [[1], [0]], "extra": {"n": [1, {"x": null}]},
                  "n": 2, "lists": "ignored", "n": -1}"#;
    assert_eq!(
        assert_same::<RoommatesDto>(doc).expect("reads"),
        format!(
            "{:?}",
            RoommatesDto {
                n: 2,
                lists: vec![vec![1], vec![0]]
            }
            .to_value()
        )
    );
}

#[test]
fn one_defect_gives_the_same_error_on_both_paths() {
    let cases = [
        // Type errors at every level of a DTO.
        r#"{"k": 2, "n": 1, "lists": [[[[0]], [[]]], [[[0]], [[0.5]]]]}"#,
        r#"{"k": "2", "n": 1, "lists": []}"#,
        r#"{"k": 2, "n": -1, "lists": []}"#,
        r#"{"k": 2, "n": 1, "lists": {"a": 1}}"#,
        r#"{"k": 2, "n": 1, "lists": [null]}"#,
        r#"{"k": 2, "n": 1, "lists": [[[["0"]]]]}"#,
        r#"{"k": 2, "n": 1}"#,
        r#"{"n": 1, "lists": []}"#,
        r#"{"k": 1e400, "n": 1, "lists": []}"#,
        r#"[1, 2]"#,
        r#"null"#,
        // Syntax errors.
        r#"{"k": 2, "n": 1, "lists": [[[[0]]],]}"#,
        r#"{"k": 2 "n": 1}"#,
        r#"{"k": 2, "n": 1, "lists": [[[[0]]]]"#,
        r#"{"k": 2, "n": 1, "lists": [[[[0]]]]} x"#,
        r#"{"k": tru, "n": 1, "lists": []}"#,
        r#"{k: 2}"#,
        r#"{"k": 2, "n": 1, "lists": [[[[1-2]]]]}"#,
        r#"{"k": 2, "n": 1, "lists": [[[[+1]]]]}"#,
        r#"{"k": "\q", "n": 1, "lists": []}"#,
        "",
        "   ",
    ];
    for doc in cases {
        assert!(
            assert_same::<KPartiteDto>(doc).is_err(),
            "{doc:?} should not parse"
        );
        assert_agree_all(doc);
    }
    let rows = [
        "[[1, 2], [3, -4]]",
        "[[1], 2]",
        "[[4294967296]]",
        "[[1.5]]",
        "[[1] [2]]",
    ];
    for doc in rows {
        assert!(
            assert_same::<Vec<Vec<u32>>>(doc).is_err(),
            "{doc:?} should not parse"
        );
    }
    for doc in ["65536", "-1", "\"7\"", "[7]", "7 7"] {
        assert!(
            assert_same::<GenderId>(doc).is_err(),
            "{doc:?} should not parse"
        );
    }
}

/// `s` read as `T`, rendered as compact JSON, after checking that the
/// typed and the tree path read the same value or fail the same way.
fn read_json<T: Deserialize + Serialize>(s: &str) -> Result<String, String> {
    assert_same::<T>(s)?;
    let t = serde_json::from_str::<T>(s).expect("read above");
    Ok(serde_json::to_string(&t).expect("renders"))
}

/// One document read as `Vec<u8>`, `Vec<u32>`, `Vec<i64>`, `Vec<usize>`
/// and `Value`, in that order.
fn read_all_runs(s: &str) -> [Result<String, String>; 5] {
    [
        read_json::<Vec<u8>>(s),
        read_json::<Vec<u32>>(s),
        read_json::<Vec<i64>>(s),
        read_json::<Vec<usize>>(s),
        read_json::<Value>(s),
    ]
}

#[test]
fn integer_runs_read_what_the_token_rules_read() {
    type Want = [Result<&'static str, &'static str>; 5];
    let all = |want: Result<&'static str, &'static str>| -> Want { [want; 5] };
    let range = |x: &'static str| -> [String; 4] {
        ["u8", "u32", "i64", "usize"].map(|t| format!("number {x} out of range for {t}"))
    };
    let cases: Vec<(&str, Want)> = vec![
        ("[1,2,3]", all(Ok("[1,2,3]"))),
        ("[1 ,2]", all(Ok("[1,2]"))),
        ("[1, 2]", all(Ok("[1,2]"))),
        ("[1,\n2]", all(Ok("[1,2]"))),
        ("[1,1e2]", all(Ok("[1,100]"))),
        ("[007,1]", all(Ok("[7,1]"))),
        ("[1,]", all(Err("unexpected character `]` at byte 3"))),
        ("[1,,2]", all(Err("unexpected character `,` at byte 3"))),
        (
            "[1,2 3]",
            all(Err("expected `,` or `]`, got `3` at byte 5")),
        ),
        ("[1,2x]", all(Err("expected `,` or `]`, got `x` at byte 4"))),
        ("[1,2", all(Err("unexpected end of JSON"))),
        ("[1,2+3]", all(Err("invalid number `2+3`"))),
    ];
    for (doc, want) in cases {
        assert_eq!(
            read_all_runs(doc),
            want.map(|w| w.map(String::from).map_err(String::from)),
            "{doc}"
        );
    }

    // Elements that some of the types reject: the run hands each one to
    // the token rules, which name it in their error.
    let [u8_big, u32_big, ..] = range("4294967296");
    let [u8_neg, u32_neg, _, usize_neg] = range("-2");
    let [u8_frac, u32_frac, i64_frac, usize_frac] = range("2.5");
    let [u8_15, u32_15, ..] = range("999999999999999");
    let [u8_16, u32_16, ..] = range("1234567890123456");
    let [u8_53, u32_53, ..] = range("9007199254740992");
    let [u8_256, ..] = range("256");
    let cases: Vec<(&str, [Result<String, String>; 5])> = vec![
        (
            "[1,4294967296]",
            [
                Err(u8_big),
                Err(u32_big),
                Ok("[1,4294967296]".into()),
                Ok("[1,4294967296]".into()),
                Ok("[1,4294967296]".into()),
            ],
        ),
        (
            "[1,-2]",
            [
                Err(u8_neg),
                Err(u32_neg),
                Ok("[1,-2]".into()),
                Err(usize_neg),
                Ok("[1,-2]".into()),
            ],
        ),
        (
            "[1,2.5]",
            [
                Err(u8_frac),
                Err(u32_frac),
                Err(i64_frac),
                Err(usize_frac),
                Ok("[1,2.5]".into()),
            ],
        ),
        (
            // 15 digits: inside the run.
            "[1,999999999999999,2]",
            [
                Err(u8_15),
                Err(u32_15),
                Ok("[1,999999999999999,2]".into()),
                Ok("[1,999999999999999,2]".into()),
                Ok("[1,999999999999999,2]".into()),
            ],
        ),
        (
            // 16 digits: read by `str::parse`, exactly here.
            "[1,1234567890123456,2]",
            [
                Err(u8_16),
                Err(u32_16),
                Ok("[1,1234567890123456,2]".into()),
                Ok("[1,1234567890123456,2]".into()),
                Ok("[1,1234567890123456,2]".into()),
            ],
        ),
        (
            // 2^53 + 1 rounds to 2^53 as an `f64`, on every path.
            "[1,9007199254740993,2]",
            [
                Err(u8_53),
                Err(u32_53),
                Ok("[1,9007199254740992,2]".into()),
                Ok("[1,9007199254740992,2]".into()),
                Ok("[1,9007199254740992,2]".into()),
            ],
        ),
        (
            "[255,256,0]",
            [
                Err(u8_256),
                Ok("[255,256,0]".into()),
                Ok("[255,256,0]".into()),
                Ok("[255,256,0]".into()),
                Ok("[255,256,0]".into()),
            ],
        ),
    ];
    for (doc, want) in cases {
        assert_eq!(read_all_runs(doc), want, "{doc}");
    }
    // Rendering goes through `f64`, so compare the 2^53 + 1 case's
    // integers directly: a 16-digit run element would read it exactly.
    let doc = "[1,9007199254740993,2]";
    assert_eq!(
        serde_json::from_str::<Vec<i64>>(doc).unwrap(),
        [1, 9_007_199_254_740_992, 2]
    );
    assert_eq!(
        serde_json::from_str::<Vec<u64>>(doc).unwrap(),
        [1, 9_007_199_254_740_992, 2]
    );
    assert_eq!(
        serde_json::from_str::<Vec<usize>>(doc).unwrap(),
        [1, 9_007_199_254_740_992, 2]
    );
    assert_eq!(
        read_json::<Vec<Vec<u32>>>("[[1,2],[3,4294967296],[5]]"),
        Err("number 4294967296 out of range for u32".to_string())
    );

    // A run cut at every byte fails as the end of the text.
    let eof = || Err::<String, _>("unexpected end of JSON".to_string());
    let doc = "[12,255,0,7,100,99]";
    for prefix in truncations(doc) {
        let want = if prefix == doc {
            Ok(doc.to_string())
        } else {
            eof()
        };
        assert_eq!(
            read_all_runs(prefix),
            [(); 5].map(|_| want.clone()),
            "{prefix:?}"
        );
    }
    let doc = "[123456789012345,4294967296,0,1]";
    for prefix in truncations(doc) {
        let want = if prefix == doc {
            Ok(doc.to_string())
        } else {
            eof()
        };
        let got = [
            read_json::<Vec<i64>>(prefix),
            read_json::<Vec<usize>>(prefix),
            read_json::<Value>(prefix),
        ];
        assert_eq!(got, [(); 3].map(|_| want.clone()), "{prefix:?}");
    }
}

#[test]
fn numbers_match_str_parse_bit_for_bit() {
    let tokens = [
        "0",
        "-0",
        "007",
        "-007",
        "123456789012345",
        "-999999999999999",
        "1234567890123456",
        "-9999999999999999",
        "12345678901234567",
        "99999999999999999",
        "9007199254740991",
        "9007199254740992",
        "9007199254740993",
        "-9007199254740993",
        "1e3",
        "1E-3",
        "1.0",
        "-0.0",
        "0.1",
        "123456789012345.5",
        "1e400",
        "-",
        "1-2",
        "+1",
        "1.",
        ".5",
        "1e",
        "--1",
    ];
    for tok in tokens {
        let expected = tok
            .parse::<f64>()
            .ok()
            .filter(|_| !tok.starts_with(['+', '.']));
        let got = serde_json::from_str::<f64>(tok).ok();
        assert_eq!(got.map(f64::to_bits), expected.map(f64::to_bits), "{tok}");
        let in_array = serde_json::from_str::<Vec<f64>>(&format!("[{tok}]")).ok();
        let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            in_array.map(bits),
            expected.map(|x| vec![x.to_bits()]),
            "[{tok}]"
        );
        match (serde_json::from_str::<Value>(&format!(" {tok} ")), expected) {
            (Ok(Value::Number(x)), Some(y)) => assert_eq!(x.to_bits(), y.to_bits(), "{tok}"),
            (Err(_), None) => {}
            (other, y) => panic!("{tok}: read {other:?}, str::parse {y:?}"),
        }
        assert_same::<u64>(tok).ok();
        assert_same::<i64>(tok).ok();
        assert_same::<Vec<i32>>(&format!("[{tok}]")).ok();
    }
}

/// `doc` read on the typed path as `f64`s and as `u64`s (scalars for a
/// bare number, `Vec`s for an array) and on the tree path, each as the
/// bits of the numbers read or as the error text.
fn read_numbers(doc: &str) -> [Result<Vec<u64>, String>; 3] {
    let err = |e: serde::Error| e.to_string();
    let floats = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect();
    let ints = |xs: Vec<u64>| xs.into_iter().map(|x| (x as f64).to_bits()).collect();
    let (typed_f64, typed_u64) = if doc.starts_with('[') {
        (
            serde_json::from_str::<Vec<f64>>(doc).map(floats),
            serde_json::from_str::<Vec<u64>>(doc).map(ints),
        )
    } else {
        (
            serde_json::from_str::<f64>(doc).map(|x| floats(vec![x])),
            serde_json::from_str::<u64>(doc).map(|x| ints(vec![x])),
        )
    };
    let number = |v: &Value| match v {
        Value::Number(x) => x.to_bits(),
        other => panic!("{doc:?} read {other:?}"),
    };
    let tree = serde_json::from_str::<Value>(doc).map(|v| match &v {
        Value::Array(items) => items.iter().map(number).collect(),
        leaf => vec![number(leaf)],
    });
    [
        typed_f64.map_err(err),
        typed_u64.map_err(err),
        tree.map_err(err),
    ]
}

/// Digit tokens of 1 to 16 digits: mixed digits, all nines, leading
/// zeros and all zeros. Runs of up to 7 digits with 8 bytes left are
/// read as one word, the rest byte by byte.
fn digit_tokens() -> Vec<String> {
    let mixed = "9081726354453627";
    (1..=16)
        .flat_map(|len| {
            [
                mixed[..len].to_string(),
                "9".repeat(len),
                format!("{}1", "0".repeat(len - 1)),
                "0".repeat(len),
            ]
        })
        .collect()
}

/// One character for every UTF-8 lead byte, 0xC2 to 0xF4: each byte
/// ≥ 0x80 that a `&str` can put right after a digit. (The bytes no
/// `&str` holds, 0xF5 to 0xFF, are checked at the byte level inside the
/// reader.)
fn non_ascii_followers() -> Vec<char> {
    (0xC2u32..=0xF4)
        .map(|lead| {
            let code = match lead {
                0xC2..=0xDF => (lead & 0x1F) << 6,
                0xE0..=0xEF => ((lead & 0x0F) << 12).max(0x800),
                _ => ((lead & 0x07) << 18).max(0x10000),
            };
            let c = char::from_u32(code).expect("a scalar value");
            let mut buf = [0u8; 4];
            assert_eq!(u32::from(c.encode_utf8(&mut buf).as_bytes()[0]), lead);
            c
        })
        .collect()
}

#[test]
fn digit_tokens_read_as_str_parse_reads_them() {
    let bits = |tok: &str| tok.parse::<f64>().map(f64::to_bits).ok();
    for tok in digit_tokens() {
        let x = bits(&tok).expect("digits parse");
        // The token ending 0 to 8 bytes before the end of the text, bare,
        // alone in an array and in a two-element run.
        for pad in 0..=8 {
            let pad = " ".repeat(pad);
            for (doc, want) in [
                (format!("{tok}{pad}"), vec![x]),
                (format!("[{tok}]{pad}"), vec![x]),
                (format!("[{tok},{tok}]{pad}"), vec![x, x]),
            ] {
                assert_eq!(
                    read_numbers(&doc),
                    [(); 3].map(|_| Ok(want.clone())),
                    "{doc:?}"
                );
            }
        }
        // Every ASCII non-digit and every non-ASCII lead byte after the
        // token: the token rules decide, as they do for `str::parse` on
        // the number text the reader cuts out.
        let len = tok.len();
        let ascii = (0u8..0x80).filter(|b| !b.is_ascii_digit()).map(char::from);
        for after in ascii.chain(non_ascii_followers()) {
            for pad in 0..=8 {
                let doc = format!("[{tok}{after}]{}", " ".repeat(pad));
                let want = match after {
                    '.' | 'e' | 'E' | '+' | '-' => {
                        let text = format!("{tok}{after}");
                        bits(&text)
                            .map(|x| vec![x])
                            .ok_or(format!("invalid number `{text}`"))
                    }
                    ',' => Err(format!("unexpected character `]` at byte {}", len + 2)),
                    ']' => Err(format!("trailing characters at byte {}", len + 2)),
                    ' ' | '\n' | '\t' | '\r' => Ok(vec![x]),
                    c => {
                        let mut buf = [0u8; 4];
                        let lead = c.encode_utf8(&mut buf).as_bytes()[0];
                        Err(format!(
                            "expected `,` or `]`, got `{}` at byte {}",
                            lead as char,
                            len + 1
                        ))
                    }
                };
                assert_eq!(read_numbers(&doc), [(); 3].map(|_| want.clone()), "{doc:?}");
            }
        }
    }
}

#[test]
fn deep_nesting_is_an_error_not_an_abort() {
    let arrays = "[".repeat(1_000_000);
    let objects = "{\"a\":".repeat(1_000_000);
    for doc in [&arrays, &objects] {
        let err = serde_json::from_str::<Value>(doc).unwrap_err().to_string();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(serde_json::from_str::<KPartiteDto>(doc).is_err());
        assert!(serde_json::from_str::<Vec<Vec<u32>>>(doc).is_err());
    }
    let deep_lists = format!(
        "{{\"k\": 1, \"n\": 1, \"lists\": {}0{}}}",
        "[".repeat(200),
        "]".repeat(200)
    );
    let err = assert_same::<KPartiteDto>(&deep_lists).unwrap_err();
    assert!(err.contains("nesting deeper than 128"), "{err}");

    let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
    assert!(serde_json::from_str::<Value>(&nested(128)).is_ok());
    assert!(serde_json::from_str::<Value>(&nested(129)).is_err());
}

/// Every prefix of `doc`, and `doc` itself.
fn truncations(doc: &str) -> impl Iterator<Item = &str> {
    (0..=doc.len()).map(move |end| &doc[..end])
}

/// `doc` with one byte replaced or inserted at a seeded position.
fn mutate(doc: &str, pos: usize, pick: usize, insert: bool) -> String {
    const BYTES: &[u8] = b"[]{},:\"\\-+.eE019 \ntnfu";
    let mut bytes = doc.as_bytes().to_vec();
    let pos = pos % (bytes.len() + usize::from(insert));
    let b = BYTES[pick % BYTES.len()];
    if insert {
        bytes.insert(pos, b);
    } else {
        bytes[pos] = b;
    }
    String::from_utf8(bytes).expect("ASCII in, ASCII out")
}

fn kpartite_doc() -> String {
    serde_json::to_string(&KPartiteDto {
        k: 2,
        n: 2,
        lists: vec![
            vec![vec![vec![], vec![1, 0]], vec![vec![], vec![0, 1]]],
            vec![vec![vec![0, 1], vec![]], vec![vec![1, 0], vec![]]],
        ],
    })
    .expect("renders")
}

fn run_report_doc() -> String {
    RunReport::new("gs", 4, 1, 7, 1, 1234, SolverMetrics::new(), Some(16)).to_json_string()
}

fn bundle_doc() -> String {
    let bundle = bundle_json(&BundleInputs {
        trigger: "stall",
        now_ns: 5,
        uptime_ns: 4,
        trace_events: &[],
        trace_dropped: 0,
        metrics: SolverMetrics::new().to_json(),
        window: None,
        logs_jsonl: "",
        progress: &[],
        profile: None,
        config: &[("n".to_string(), "4".to_string())],
        seed: Some(3),
        rss_bytes: None,
    });
    serde_json::to_string_pretty(&bundle).expect("renders")
}

fn validate_postmortem(text: &str) -> Result<(), String> {
    let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    validate_bundle(&v)
}

/// Run every reader and validator on hostile bytes: none may panic.
fn drive_hostile(text: &str) {
    assert_agree_all(text);
    let _ = RunReport::validate_json_str(text);
    let _ = validate_postmortem(text);
}

#[test]
fn truncated_documents_fail_cleanly() {
    let (kpartite, report, bundle) = (kpartite_doc(), run_report_doc(), bundle_doc());
    assert!(RunReport::validate_json_str(&report).is_ok());
    assert!(validate_postmortem(&bundle).is_ok());
    for doc in [&kpartite, &report, &bundle] {
        for prefix in truncations(doc) {
            drive_hostile(prefix);
        }
    }
    for prefix in truncations(&report).take(report.trim_end().len()) {
        assert!(RunReport::validate_json_str(prefix).is_err());
    }
    for prefix in truncations(&bundle).take(bundle.len()) {
        assert!(validate_postmortem(prefix).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn mutated_documents_never_panic(
        pos in 0usize..1_000_000,
        pick in 0usize..1000,
        insert in 0u8..2
    ) {
        for doc in [kpartite_doc(), run_report_doc(), bundle_doc()] {
            drive_hostile(&mutate(&doc, pos, pick, insert == 1));
        }
    }
}

#[test]
fn numbers_render_without_change() {
    let cases: [(f64, &str); 7] = [
        (-0.0, "0"),
        (0.125, "0.125"),
        (1e20, "100000000000000000000"),
        (9_007_199_254_740_992.0, "9007199254740992"),
        (8_999_999_999_999_999.0, "8999999999999999"),
        (-42.0, "-42"),
        (-1.5e-7, "-0.00000015"),
    ];
    for (x, text) in cases {
        assert_eq!(serde_json::to_string(&x).expect("renders"), text, "{x:e}");
    }
    assert_eq!(
        serde_json::to_string(&"tab\t\u{1}").expect("renders"),
        "\"tab\\t\\u0001\""
    );
}
