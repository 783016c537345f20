#!/bin/sh
# End-to-end checks of the sz14 command-line front end: every usage error
# exits 2, the codec and archive round trips succeed, and `archive create`
# resolves its error bound the way `compress` does.
#
#   sh tests/test_cli.sh path/to/sz14      (ctest runs it as test_cli)
#
# Works in a temporary directory, removed on exit.  Needs python3 to write
# the input field and to measure the reconstruction error.
set -u
SZ=$1
case $SZ in /*) ;; *) SZ=$(pwd)/$SZ ;; esac
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1
fail=0

# A smooth 20x30x40 f32 field in [-1, 1], and a copy with one +inf value.
python3 - <<'EOF' || exit 1
import math, struct
v = [math.sin(0.01 * i) for i in range(24000)]
open('f.f32', 'wb').write(struct.pack('<24000f', *v))
v[777] = float('inf')
open('inf.f32', 'wb').write(struct.pack('<24000f', *v))
EOF

# expect CODE ARGS...: run `sz14 ARGS` and check its exit code.
expect() {
  want=$1
  shift
  "$SZ" "$@" >out.txt 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: sz14 $* exited $got, want $want"
    cat out.txt
    fail=1
  fi
}

# max_error ORIG DECODED BOUND: the largest |x - x'| over the finite
# values of ORIG must not exceed BOUND.
max_error() {
  python3 - "$@" <<'EOF' || fail=1
import math, struct, sys
orig, decoded, bound = sys.argv[1], sys.argv[2], float(sys.argv[3])
a = struct.unpack('<24000f', open(orig, 'rb').read())
b = struct.unpack('<24000f', open(decoded, 'rb').read())
err = max(abs(x - y) for x, y in zip(a, b) if math.isfinite(x))
if err > bound:
    sys.exit('FAIL: %s max error %.3g > %.3g' % (decoded, err, bound))
EOF
}

FIELD="v=f.f32:20x30x40"
CREATE="archive create -o bad.sza --field $FIELD --codec sz14"
COMPRESS="compress -i f.f32 -o bad.sz -d 20x30x40"

# Round trips.
expect 0 compress -i f.f32 -o f.sz -d 20x30x40 --rel 1e-4
expect 0 decompress -i f.sz -o back.f32
max_error f.f32 back.f32 2e-4
expect 0 archive create -o a.sza --field $FIELD --codec sz14 --rel 1e-4 \
  --block 8x16x16
expect 0 archive extract -i a.sza -f v -o whole.f32
max_error f.f32 whole.f32 2e-4

# Integer flags: a sign, trailing characters or an out-of-range value.
expect 2 $CREATE --rel 1e-4 --parity-group 4294967296
expect 2 archive extract -i a.sza -f v -o bad.f32 -t -1
expect 2 archive extract -i a.sza -f v -o bad.f32 -t 2x
expect 2 compress -i f.f32 -o bad.sz -d 20x-30x40 --rel 1e-4

# Float flags: trailing characters, no number, a sign, or not finite.
for v in 1e-4x abc -1 nan inf 1e400; do
  expect 2 $COMPRESS --rel "$v"
done
expect 2 $COMPRESS --abs -1
expect 2 $COMPRESS --abs nan
expect 2 $COMPRESS --pwrel 1e-3x
expect 2 $CREATE --abs 1e-4x
expect 0 compress -i f.f32 -o zero.sz -d 20x30x40 --abs 0

# A flag the command does not use, for each command family.
expect 2 decompress -i f.sz -o bad.f32 --rel 1e-4
expect 2 info -i f.sz -t 2
expect 2 $CREATE --rel 1e-4 --repair
expect 2 $CREATE --rel 1e-4 --mmap
expect 2 $CREATE --rel 1e-4 --limit 3
expect 2 archive extract -i a.sza -f v -o bad.f32 --parity
expect 2 archive extract -i a.sza -f v -o bad.f32 --turbo
expect 2 archive fsck -i a.sza --mmap
expect 2 serve -i missing.sza --limit 3
expect 2 get --connect 127.0.0.1:1 --mmap
expect 2 failpoints ls --repair

# archive create takes the tighter of --abs and --rel, as compress does.
expect 0 archive create -o ar.sza --field $FIELD --codec sz14 --abs 1e-4 \
  --rel 1e-3 --block 8x16x16
expect 0 archive extract -i ar.sza -f v -o ar.f32
max_error f.f32 ar.f32 1e-4

# ... and takes the value range over the finite values only.
expect 0 archive create -o inf.sza --field v=inf.f32:20x30x40 --codec sz14 \
  --rel 1e-4 --block 8x16x16
expect 0 archive extract -i inf.sza -f v -o inf_out.f32
max_error inf.f32 inf_out.f32 2e-4

exit $fail
