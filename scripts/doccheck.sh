#!/usr/bin/env bash
# doccheck.sh — run the repo's documentation checks, one rule list over
# one parse of internal/ and cmd/ (scripts/doccheck, go/ast only). It
# fails when:
#   - a package or exported identifier under internal/ or cmd/ lacks a
#     doc comment;
#   - docs/CLI.md lacks a section or table row for a command under cmd/,
#     has a section for a command that is gone, leaves a registered flag
#     out of its command's section, or lists a flag the command does not
#     register;
#   - a code span in docs/*.md or README.md names a flag no command
#     registers;
#   - docs/DETECTORS.md leaves out a detector name or an exported Stats
#     field of internal/detector;
#   - docs/STREAMING.md or docs/GENERATION.md leaves out an export of
#     internal/stream or internal/racegen.
# CI runs this as a blocking step; run it locally before sending a PR:
#
#   scripts/doccheck.sh
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./scripts/doccheck
