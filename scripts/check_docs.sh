#!/usr/bin/env bash
# Checks the markdown "book" (docs/ARCHITECTURE.md, README.md) for rot:
# every relative link must point at an existing file, and every
# intra-document #anchor must match a real heading (GitHub slug rules).
# Run from the repository root; CI runs it as a dedicated step.
set -euo pipefail

cd "$(dirname "$0")/.."

python3 - "$@" <<'EOF'
import os
import re
import sys

FILES = ["README.md", "docs/ARCHITECTURE.md"]
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

def github_slug(heading: str) -> str:
    """The anchor GitHub generates for a heading."""
    slug = heading.strip().lower()
    # Drop inline code backticks, then any char that is not a word
    # character, space or hyphen; spaces become hyphens.
    slug = slug.replace("`", "")
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")

errors = []
for path in FILES:
    if not os.path.exists(path):
        errors.append(f"{path}: file listed in check_docs.sh is missing")
        continue
    text = open(path, encoding="utf-8").read()
    # Collect this file's own anchors (skip headings inside fences).
    anchors = set()
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
        elif not in_fence and line.startswith("#"):
            anchors.add(github_slug(line.lstrip("#")))
    # Strip code fences before scanning for links.
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    for target in LINK.findall(prose):
        if target.startswith(("http://", "https://", "mailto:")):
            continue  # external: not checked offline
        file_part, _, anchor = target.partition("#")
        if file_part:
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), file_part)
            )
            if not os.path.exists(resolved):
                errors.append(f"{path}: broken link `{target}` ({resolved} missing)")
                continue
            if anchor and resolved.endswith(".md"):
                other = open(resolved, encoding="utf-8").read()
                other_anchors = {
                    github_slug(l.lstrip("#"))
                    for l in other.splitlines()
                    if l.startswith("#")
                }
                if anchor not in other_anchors:
                    errors.append(f"{path}: broken anchor `{target}`")
        elif anchor and anchor not in anchors:
            errors.append(f"{path}: broken intra-doc anchor `#{anchor}`")

if errors:
    print("documentation check failed:", file=sys.stderr)
    for e in errors:
        print(f"  {e}", file=sys.stderr)
    sys.exit(1)
print(f"docs OK: {', '.join(FILES)}")
EOF
