# Prints a Rust source file without its test modules, for tools/panic_gate.sh
# and tools/loc.sh. A module is skipped when a column-0 `#[cfg(test)]`
# (further attribute or comment lines may follow) leads to a `mod name {`
# line, through the module's column-0 `}`. Every other `#[cfg(test)]` item,
# and whatever follows it, is printed like any code. Run it once per file.
skip { if ($0 ~ /^}/) skip = 0; next }
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
    if (test && $0 ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{ *$/) { skip = 1; next }
    print
}
