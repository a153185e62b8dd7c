//! Character-reference (entity) decoding.

use std::borrow::Cow;

/// Decodes the named and numeric character references that appear in the pages this
/// repo generates and parses. Unknown references are left verbatim (browser-like
/// recovery rather than an error). Input without a `&` is returned borrowed.
#[must_use]
pub fn decode_entities(input: &str) -> Cow<'_, str> {
    let Some(first) = input.find('&') else {
        return Cow::Borrowed(input);
    };
    let mut out = String::with_capacity(input.len());
    out.push_str(&input[..first]);
    // `rest` always starts at a '&'.
    let mut rest = &input[first..];
    loop {
        let after = &rest[1..];
        // The terminating ';' must lie within the next 32 characters.
        let decoded = after
            .char_indices()
            .take(32)
            .find(|&(_, c)| c == ';')
            .filter(|&(end, _)| decode_one(&after[..end], &mut out))
            .map(|(end, _)| end + 1);
        let consumed = match decoded {
            Some(len) => 1 + len,
            None => {
                out.push('&');
                1
            }
        };
        rest = &rest[consumed..];
        match rest.find('&') {
            Some(at) => {
                out.push_str(&rest[..at]);
                rest = &rest[at..];
            }
            None => {
                out.push_str(rest);
                return Cow::Owned(out);
            }
        }
    }
}

/// Appends the character(s) `entity` (the text between `&` and `;`) stands for to
/// `out`; returns `false`, appending nothing, for an unknown reference.
fn decode_one(entity: &str, out: &mut String) -> bool {
    if let Some(rest) = entity.strip_prefix('#') {
        let code = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X')) {
            u32::from_str_radix(hex, 16).ok()
        } else {
            rest.parse::<u32>().ok()
        };
        return match code.and_then(char::from_u32) {
            Some(c) => {
                out.push(c);
                true
            }
            None => false,
        };
    }
    let named = match entity {
        "amp" => "&",
        "lt" => "<",
        "gt" => ">",
        "quot" => "\"",
        "apos" => "'",
        "nbsp" => "\u{a0}",
        "copy" => "\u{a9}",
        "reg" => "\u{ae}",
        "hellip" => "\u{2026}",
        "mdash" => "\u{2014}",
        "ndash" => "\u{2013}",
        "lsquo" => "\u{2018}",
        "rsquo" => "\u{2019}",
        "ldquo" => "\u{201c}",
        "rdquo" => "\u{201d}",
        _ => return false,
    };
    out.push_str(named);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_entities_decode() {
        assert_eq!(decode_entities("a &amp; b"), "a & b");
        assert_eq!(decode_entities("&lt;script&gt;"), "<script>");
        assert_eq!(decode_entities("&quot;x&quot; &apos;y&apos;"), "\"x\" 'y'");
        assert_eq!(decode_entities("no entities here"), "no entities here");
    }

    #[test]
    fn numeric_entities_decode() {
        assert_eq!(decode_entities("&#65;&#66;"), "AB");
        assert_eq!(decode_entities("&#x41;&#X42;"), "AB");
        assert_eq!(decode_entities("&#x1F600;"), "😀");
    }

    #[test]
    fn unknown_or_malformed_entities_pass_through() {
        assert_eq!(decode_entities("&unknown;"), "&unknown;");
        assert_eq!(decode_entities("AT&T"), "AT&T");
        assert_eq!(decode_entities("100% &"), "100% &");
        assert_eq!(decode_entities("&#xZZ;"), "&#xZZ;");
        assert_eq!(decode_entities("&#1114112;"), "&#1114112;"); // out of Unicode range
    }

    #[test]
    fn adjacent_and_repeated_entities() {
        assert_eq!(decode_entities("&amp;&amp;&amp;"), "&&&");
        assert_eq!(decode_entities("&lt;&#47;div&gt;"), "</div>");
    }
}
