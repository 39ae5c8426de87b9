#!/bin/sh
# lint.sh runs the static checkers: gofmt and go vet always, and
# staticcheck when a binary is available. Any file gofmt would rewrite
# fails the run. staticcheck is pinned to 2025.1 (the release
# validated against this module's go directive); any other version prints
# a warning but still runs, since analyzer sets drift between releases.
#
# The staticcheck gate keeps `make lint` (and thus `make ci`) green on
# hermetic builders that bake in only the go toolchain: vet is the floor
# every change must clear, staticcheck the deeper pass developers and CI
# images with the tool installed get for free.
set -eu

GO="${GO:-go}"
STATICCHECK_VERSION="2025.1"

unformatted="$("$("$GO" env GOROOT)/bin/gofmt" -l .)"
if [ -n "$unformatted" ]; then
    echo "lint.sh: files not gofmt-clean:" >&2
    echo "$unformatted" >&2
    exit 1
fi

"$GO" vet ./...

if command -v staticcheck >/dev/null 2>&1; then
    got="$(staticcheck -version 2>/dev/null || true)"
    case "$got" in
    *"$STATICCHECK_VERSION"*) ;;
    *)
        echo "lint.sh: warning: staticcheck is not the pinned $STATICCHECK_VERSION: $got" >&2
        ;;
    esac
    staticcheck ./...
else
    echo "lint.sh: staticcheck not installed; ran go vet only (pin: staticcheck $STATICCHECK_VERSION)" >&2
fi
