#!/usr/bin/env bash
# doccheck.sh — fail when a package or exported identifier under
# internal/ or cmd/ lacks a doc comment, when docs/CLI.md has gone
# stale against the commands under cmd/, when a code span in docs/*.md
# or README.md names a flag no command registers, when
# docs/DETECTORS.md no longer covers every detector name and exported
# Stats field, or when docs/STREAMING.md or docs/GENERATION.md no
# longer covers every internal/stream or internal/racegen export.
# CI runs this as a blocking step; run it locally before sending a PR:
#
#   scripts/doccheck.sh
#
# The actual checker is the Go program in scripts/doccheck, which
# parses the source with go/ast (no deps beyond the stdlib).
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./scripts/doccheck -clidoc docs/CLI.md -cmds cmd \
	-flagdocs 'docs/*.md,README.md' \
	-detdoc docs/DETECTORS.md -detsrc internal/detector \
	-pkgdoc docs/STREAMING.md:internal/stream \
	-pkgdoc docs/GENERATION.md:internal/racegen \
	internal cmd
