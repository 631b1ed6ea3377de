# Prints a Rust source file without its test modules, for tools/panic_gate.sh
# and tools/loc.sh. A module is skipped when a column-0 `#[cfg(test)]`
# (further attribute or comment lines may follow) leads to a `mod name {`
# line, through the line holding the `}` that closes it. Braces are counted
# outside strings, raw strings, character literals and comments, so a brace
# inside a multi-line string does not end the module. Every other
# `#[cfg(test)]` item, and whatever follows it, is printed like any code.
# Run it once per file. tools/strip_fixture.rs pins the behaviour.

# Counts the braces of one line of a skipped module into `depth`, stopping
# at the brace that closes it. `mode` carries an open string ("s"), raw
# string ("r", closed by a quote and `hashes` `#`s) or block comment ("c",
# `nest` deep) over to the next line.
function scan(line,    i, n, c, two) {
    n = length(line)
    for (i = 1; i <= n; i++) {
        c = substr(line, i, 1)
        two = substr(line, i, 2)
        if (mode == "s") {
            if (c == "\\") i++
            else if (c == "\"") mode = ""
        } else if (mode == "r") {
            if (c == "\"" && substr(line, i + 1, length(hashes)) == hashes) {
                i += length(hashes)
                mode = ""
            }
        } else if (mode == "c") {
            if (two == "*/") { i++; if (--nest == 0) mode = "" }
            else if (two == "/*") { i++; nest++ }
        } else if (two == "//") {
            return
        } else if (two == "/*") {
            mode = "c"; nest = 1; i++
        } else if (c == "\"") {
            mode = "s"
        } else if (c == "r" && match(substr(line, i + 1), /^#*"/)) {
            hashes = substr(line, i + 1, RLENGTH - 1)
            mode = "r"
            i += RLENGTH
        } else if (c == "'") {
            # A character literal ('x', '\n', '\u{7f}'); otherwise a lifetime.
            if (substr(line, i + 1, 1) == "\\") i += 2 + index(substr(line, i + 3), "'")
            else if (substr(line, i + 2, 1) == "'") i += 2
        } else if (c == "{") {
            depth++
        } else if (c == "}" && --depth == 0) {
            return
        }
    }
}

skip { scan($0); if (depth == 0) skip = 0; next }
{
    test = pending
    pending = 0
    if ($0 ~ /^#\[cfg\(test\)\]/) {
        sub(/^#\[cfg\(test\)\][ \t]*/, "")
        test = 1
        if ($0 == "") { pending = 1; next }
    } else if (test && $0 ~ /^(#\[|\/\/)/) {
        pending = 1
        next
    }
    if (test && $0 ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{ *$/) {
        skip = 1; depth = 1; mode = ""
        next
    }
    print
}
