#!/usr/bin/env python3
"""A compiler-checked census of the workspace's `pub` items.

Usage: python3 scripts/pub_census.py

On a copy of the working tree (never the checkout itself) every `pub`
fn, struct, enum, const, static, type and trait item and every name a
`pub use` re-exports from `crates/*/src` (in-file `#[cfg(test)]` modules
excepted) is demoted to `pub(crate)`; a braced `pub use p::{A, B}` is
split so that each name is demoted, and made public again, on its own.
Then

    cargo check --offline --keep-going --all-targets

runs over the workspace and over the `benchmark` package, and every item
a build rejects is made public again: by the error's span (E0603, E0624
and friends point at the definition), or by name where the error only
names it (re-exports E0364/E0365, glob imports E0425, "type `X` is
private", and the `private_interfaces`/`private_bounds` warnings of an
item made public again whose signature names a demoted one). This
repeats until both builds are clean. What stays demoted is reached from
no other crate, no test target, no example and not from the benchmark:

- **dead** if rustc's `dead_code` (for a re-export, `unused_imports`)
  fires on it in `cargo check --lib --bins`: no non-test code of its own
  crate reaches it either;
- **crate-internal** otherwise (narrow it to `pub(crate)` or private).

Each printed item must have a line in `scripts/pub_census.allow`:

    <file> <Owner::name, name or use:path> <reason>

The script exits 1 if a printed item has no allow line or an allow line
names no printed item, 2 if a build fails in a way it cannot attribute
to a demoted item, and 0 otherwise. Doctests are not checked (`cargo
check` does not build them): a doctest that calls a narrowed item fails
`cargo test --doc`, not this census.

The copy lives in `<target>/pub-census/tree` and builds into the same
target directory as the checkout (`CARGO_TARGET_DIR`, else `target/`),
so a second run rebuilds only what changed.
"""

import json
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOW = ROOT / "scripts" / "pub_census.allow"
TARGET = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / "target")).resolve()
TREE = TARGET / "pub-census" / "tree"

ITEM = re.compile(
    r"^(\s*)pub ((?:const |unsafe |extern \"C\" )*)"
    r"(fn|struct|enum|const|static|type|trait|union)\s+(?:mut\s+)?(?:r#)?(\w+)"
)
OPENER = re.compile(r"^(?:pub(?:\([^)]*\))? )?(?:unsafe )?(impl|trait|mod)\b(.*)")
# Errors that name the item but point only at its use.
BY_NAME_CODES = {"E0364", "E0365", "E0425", "E0412", "E0432", "E0433", "E0405", "E0422", "E0423"}
INTERFACE_LINTS = {"private_interfaces", "private_bounds"}


class Item:
    def __init__(self, krate, path, line, kind, name, owner, last=None):
        self.krate, self.path, self.line = krate, path, line
        self.kind, self.name, self.owner = kind, name, owner
        self.last = last or line  # a `pub use` may span lines

    @property
    def leaf(self):
        """The name the item is known by (for a re-export, the exported one)."""
        return self.name.split("::")[-1]

    @property
    def key(self):
        if self.kind == "use":
            return f"use:{self.name}"
        return f"{self.owner}::{self.name}" if self.owner else self.name

    def __repr__(self):
        return f"{self.path}:{self.line} {self.key} ({self.kind})"


def owner_of(lines, i, indent):
    """The impl type or trait an indented item belongs to; None at module level."""
    for j in range(i - 1, -1, -1):
        text = lines[j]
        stripped = text.strip()
        if not stripped or len(text) - len(text.lstrip()) >= indent:
            continue
        m = OPENER.match(stripped)
        if not m:
            if stripped in ("{", "where") or stripped.startswith(("//", "#[", "where")):
                continue
            if stripped.endswith(",") or stripped.startswith(("T:", "F:")):
                continue
            return None
        kind, rest = m.groups()
        if kind == "mod":
            return None
        rest = re.sub(r"^<[^{]*?>\s*", "", rest.strip()) if kind == "impl" else rest.strip()
        if kind == "impl" and " for " in rest:
            rest = rest.split(" for ", 1)[1]
        name = re.match(r"[\w:]*?(\w+)\s*(?:<|\{|$|\s)", rest.strip() + " ")
        return name.group(1) if name else None
    return None


def scan_crate(krate_dir):
    """Every `pub` item of one crate's `src`, outside `#[cfg(test)]` modules."""
    items = []
    for path in sorted((krate_dir / "src").rglob("*.rs")):
        rel = str(path.relative_to(ROOT))
        lines = path.read_text().split("\n")
        skip_until = None
        for i, text in enumerate(lines):
            if skip_until is not None:
                if text == skip_until:
                    skip_until = None
                continue
            if text.strip() == "#[cfg(test)]" and i + 1 < len(lines):
                nxt = lines[i + 1]
                if re.match(r"^\s*(pub(\([^)]*\))? )?mod \w+ \{$", nxt):
                    skip_until = nxt[: len(nxt) - len(nxt.lstrip())] + "}"
                    continue
            if re.match(r"^\s*pub use ", text):
                last = next(j for j in range(i, len(lines)) if lines[j].rstrip().endswith(";"))
                tree = "".join(t.strip() for t in lines[i : last + 1])
                tree = tree[len("pub use ") : -1].replace(" ", "")
                # `p::{A, B}` is one item per name (the workspace's braces
                # never nest); `p::A` is one item.
                braced = re.fullmatch(r"(.*::)\{(.*)\}", tree)
                paths = [braced[1] + n for n in braced[2].split(",") if n] if braced else [tree]
                for path_ in paths:
                    items.append(Item(krate_dir.name, rel, i + 1, "use", path_, None, last + 1))
                continue
            m = ITEM.match(text)
            if not m:
                continue
            indent = len(m.group(1))
            owner = owner_of(lines, i, indent) if indent else None
            items.append(Item(krate_dir.name, rel, i + 1, m.group(3), m.group(4), owner))
    return items


def sync_tree():
    """Copy the working tree (tracked and untracked, not ignored) into TREE,
    touching only files whose content differs."""
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode()
    files = {f for f in out.split("\0") if f and (ROOT / f).is_file()}
    TREE.mkdir(parents=True, exist_ok=True)
    for f in sorted(files):
        write_if_changed(TREE / f, (ROOT / f).read_bytes())
    for path in sorted(TREE.rglob("*"), reverse=True):
        rel = str(path.relative_to(TREE))
        if path.is_file() and rel not in files and not rel.startswith(("target/", "benchmark/target/")):
            path.unlink()


def fail(why):
    print(f"pub_census: {why}", file=sys.stderr)
    sys.exit(2)


def write_if_changed(path, data):
    if path.exists() and path.read_bytes() == data:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def write_demoted(by_file, public):
    for rel, items in by_file.items():
        lines = (ROOT / rel).read_text().split("\n")
        statements = defaultdict(list)
        for it in items:
            if it.kind == "use":
                statements[it.line].append(it)
            elif it not in public:
                text = lines[it.line - 1]
                lines[it.line - 1] = text.replace("pub ", "pub(crate) ", 1)
        for line, uses in statements.items():
            demoted = [it for it in uses if it not in public]
            if not demoted:
                continue
            # One `use` per visibility on the statement's first line; its
            # other lines stay, blank, so every later line keeps its number.
            indent = re.match(r"\s*", lines[line - 1])[0]
            kept = [it for it in uses if it in public]
            text = indent
            for vis, group in (("pub", kept), ("pub(crate)", demoted)):
                if group:
                    text += f"{vis} use {{{', '.join(it.name for it in group)}}}; "
            lines[line - 1] = text.rstrip()
            for j in range(line, uses[0].last):
                lines[j] = ""
        write_if_changed(TREE / rel, "\n".join(lines).encode())


def cargo_check(manifest_dir, args):
    cmd = ["cargo", "check", "--offline", "--message-format=json", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=str(TARGET))
    env.pop("RUSTFLAGS", None)
    proc = subprocess.run(cmd, cwd=manifest_dir, env=env, capture_output=True, text=True)
    messages = []
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            continue
        if msg.get("reason") == "compiler-message":
            messages.append(msg["message"])
    failed = proc.returncode != 0
    if failed and not any(m["level"] == "error" for m in messages):
        sys.stderr.write(proc.stderr)
        fail(f"`{' '.join(cmd)}` failed without a compiler error")
    return messages


def spans_of(msg):
    stack = list(msg.get("spans", []))
    for child in msg.get("children", []):
        stack.extend(child.get("spans", []))
    while stack:
        span = stack.pop()
        yield span
        exp = span.get("expansion")
        if exp:
            stack.append(exp["span"])
            if exp.get("def_site_span"):
                stack.append(exp["def_site_span"])


def tree_rel(file_name, build_dir):
    path = Path(file_name)
    if not path.is_absolute():
        path = build_dir / path
    try:
        return str(Path(os.path.normpath(path)).relative_to(TREE))
    except ValueError:
        return None


def items_at(span, build_dir, by_line):
    """The items a span points at: on a split `pub use` line, the names it
    highlights (all of the line's names if it highlights none of them)."""
    at = by_line.get((tree_rel(span["file_name"], build_dir), span["line_start"]), [])
    if len(at) < 2:
        return set(at)
    text = span.get("text") or [{}]
    first = text[0]
    marked = first.get("text", "")[first.get("highlight_start", 1) - 1 : first.get("highlight_end", 1) - 1]
    words = set(re.findall(r"\w+", marked))
    return {it for it in at if it.leaf in words} or set(at)


def attribute(msg, build_dir, by_line, by_name):
    """The demoted items an error (or interface warning) is about."""
    code = (msg.get("code") or {}).get("code")
    hits = set()
    for span in spans_of(msg):
        hits |= items_at(span, build_dir, by_line)
    text = msg["message"]
    # Some errors only name the item; "is private" names it besides the
    # span of its definition, which is the safer witness when present.
    named = (
        code in BY_NAME_CODES
        or code in INTERFACE_LINTS
        or "private type" in text
        or ("is private" in text and not hits)
    )
    if named:
        # The first name in the message is the item it is about.
        name = re.findall(r"`([^`]+)`", text)[:1]
        for base in (re.split(r"<|\(", n.split("::")[-1])[0] for n in name):
            hits.update(it for it in by_name.get(base, ()) if it.owner is None)
    return hits


def census():
    sync_tree()
    items = [it for d in sorted((ROOT / "crates").iterdir()) if (d / "Cargo.toml").exists()
             for it in scan_crate(d)]
    by_file = defaultdict(list)
    by_line, by_name = defaultdict(list), defaultdict(list)
    for it in items:
        by_file[it.path].append(it)
        for line in range(it.line, it.last + 1):
            by_line[(it.path, line)].append(it)
        by_name[it.leaf].append(it)

    public = set()
    builds = [
        (TREE, ["--workspace", "--all-targets", "--keep-going"]),
        (TREE / "benchmark", ["--all-targets", "--keep-going"]),
    ]
    rounds = 0
    while True:
        write_demoted(by_file, public)
        rounds += 1
        promoted, stuck = set(), []
        for build_dir, args in builds:
            messages = cargo_check(build_dir, args)
            for msg in messages:
                code = (msg.get("code") or {}).get("code")
                is_error = msg["level"] == "error"
                if not is_error and code not in INTERFACE_LINTS:
                    continue
                if is_error and code is None and not msg.get("spans"):
                    continue  # "aborting due to N previous errors"
                hits = attribute(msg, build_dir, by_line, by_name) - public
                if hits:
                    promoted |= hits
                elif is_error:
                    stuck.append(msg)
            if promoted:
                break  # rebuild with these public before checking the next build
        print(f"round {rounds}: {len(promoted)} made public again", file=sys.stderr)
        if not promoted:
            if stuck:
                for msg in stuck:
                    sys.stderr.write(msg.get("rendered") or msg["message"])
                fail(f"{len(stuck)} build error(s) name no demoted item")
            break
        public |= promoted

    dead = set()
    messages = cargo_check(TREE, ["--workspace", "--lib", "--bins"])
    for msg in messages:
        # An unused re-export is an unused import, not dead code.
        if (msg.get("code") or {}).get("code") not in ("dead_code", "unused_imports"):
            continue
        for span in msg.get("spans", []):
            # Only the primary spans name what is unused: a secondary one
            # labels the enclosing impl or the enum of an unused variant.
            if not span["is_primary"]:
                continue
            dead |= items_at(span, TREE, by_line) - public
    return items, public, dead


def main():
    items, public, dead = census()
    allow = {}
    for n, line in enumerate(ALLOW.read_text().splitlines() if ALLOW.exists() else [], 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3:
            sys.exit(f"{ALLOW.name}:{n}: want `<file> <item> <reason>`, got {line!r}")
        allow[(parts[0], parts[1])] = parts[2]

    printed, unexplained = set(), 0
    print(f"{'crate':<10} {'items':>6} {'pub fn':>6} {'reached':>8} {'internal':>8} {'dead':>5}")
    per_crate = defaultdict(list)
    for it in items:
        per_crate[it.krate].append(it)
    for krate, its in sorted(per_crate.items()):
        fns = [it for it in its if it.kind == "fn"]
        internal = [it for it in its if it not in public and it not in dead]
        print(f"{krate:<10} {len(its):>6} {len(fns):>6} {sum(it in public for it in its):>8} "
              f"{len(internal):>8} {sum(it in dead for it in its):>5}")
    for it in items:
        if it in public:
            continue
        verdict = "dead" if it in dead else "crate-internal"
        printed.add((it.path, it.key))
        reason = allow.get((it.path, it.key))
        if reason is None:
            unexplained += 1
        print(f"{verdict:<14} {it!r}" + (f"  # allowed: {reason}" if reason else ""))
    stale = sorted(set(allow) - printed)
    for path, key in stale:
        print(f"stale allow line: {path} {key} (the census no longer prints it)")
    if unexplained or stale:
        print(f"pub_census: {unexplained} item(s) without a line in {ALLOW.relative_to(ROOT)}, "
              f"{len(stale)} stale line(s)", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
