//! Input for tools/strip_test_mods.awk, checked in CI: the stripper's
//! output must equal tools/strip_fixture.expected, which keeps the code
//! before, between and after the two test modules. The first module holds
//! braces in a multi-line string (one at column 0), a raw string,
//! character literals and comments; only its own closing brace ends it.

pub fn before() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    const PROGRAM: &str = "
int main() {
    return 0;
}
";
    const RAW: &str = r#"a "quoted" } and {"#;
    const CHARS: [char; 4] = ['{', '"', '\'', '\u{7d}'];
    /* a } in a block comment /* nested { */ */
    // a } in a line comment

    #[test]
    fn braces() {
        assert_eq!(PROGRAM.matches('}').count(), 1);
        assert_eq!(RAW.len() + CHARS.len(), 22);
    }
}

pub fn after() -> u32 {
    2
}

#[cfg(test)]
#[allow(dead_code)]
pub(crate) mod more {
    fn first<'a>(s: &'a str) -> &'a str {
        s
    }
}

#[cfg(test)]
fn not_a_module() {}

pub fn last() {}
