//! JSON writing for the result line, the trace file and the calibration
//! file. Values are rendered to `String`s and composed; the benchmark has
//! no serde (the tree builds offline).

/// A quoted string value, escaped with the table every JSON emitter of the
/// repository shares.
pub fn s(v: &str) -> String {
    format!("\"{}\"", lucid_core::json_escape(v))
}

/// A number with all the digits it was measured with (shortest form that
/// round-trips); non-finite values have no JSON form and degrade to `null`.
pub fn f(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"k":v,...}` from already-rendered values, in the given order.
pub fn obj(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("{}:{v}", s(k))).collect();
    format!("{{{}}}", body.join(","))
}

/// `[v,...]` from already-rendered values.
pub fn arr(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_core::interp::scenario::json::{self, Json};

    #[test]
    fn strings_escape_and_round_trip_through_the_repo_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let doc = obj(&[
            ("k", s(nasty)),
            ("n", f(1.25)),
            ("xs", arr(&[f(1.0), f(-2.5e-7)])),
        ]);
        let Json::Obj(fields) = json::parse(&doc).expect("writer emits valid JSON") else {
            panic!("not an object: {doc}");
        };
        assert_eq!(fields[0], ("k".to_string(), Json::Str(nasty.to_string())));
        assert_eq!(fields[1].1, Json::Num(1.25));
        assert_eq!(
            fields[2].1,
            Json::Arr(vec![Json::Num(1.0), Json::Num(-2.5e-7)])
        );
    }

    #[test]
    fn numbers_keep_every_digit_and_non_finite_is_null() {
        assert_eq!(f(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(f(3.0), "3");
        assert_eq!(f(f64::NAN), "null");
        assert_eq!(f(f64::INFINITY), "null");
        assert_eq!(obj(&[]), "{}");
        assert_eq!(arr(&[]), "[]");
    }
}
