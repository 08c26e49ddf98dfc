package envelope

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEnvelopeValidate(t *testing.T) {
	cases := []struct {
		e  Envelope
		ok bool
	}{
		{Envelope{0, 0, 0, 0}, true},
		{Envelope{1 << 19, MaxTag, MaxComm, 0}, true},
		{Envelope{-1, 0, 0, 0}, false},
		{Envelope{0, -1, 0, 0}, false},
		{Envelope{0, MaxTag + 1, 0, 0}, false},
		{Envelope{0, 0, -1, 0}, false},
		{Envelope{0, 0, MaxComm + 1, 0}, false},
		{Envelope{MaxRank, 0, 0, 0}, true},
		{Envelope{MaxRank + 1, 0, 0, 0}, false},
		{Envelope{0, 0, 0, MaxStream}, true},
		{Envelope{0, 0, 0, MaxStream + 1}, false},
		{Envelope{0, 0, 0, -1}, false},
	}
	for _, c := range cases {
		err := c.e.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v) = %v, want ok=%v", c.e, err, c.ok)
		}
	}
}

func TestRequestValidate(t *testing.T) {
	cases := []struct {
		r  Request
		ok bool
	}{
		{Request{0, 0, 0, 0}, true},
		{Request{AnySource, AnyTag, 0, 0}, true},
		{Request{-2, 0, 0, 0}, false},
		{Request{0, -2, 0, 0}, false},
		{Request{0, MaxTag + 1, 0, 0}, false},
		{Request{0, 0, MaxComm + 1, 0}, false},
		{Request{MaxRank, 0, 0, 0}, true},
		{Request{MaxRank + 1, 0, 0, 0}, false},
		{Request{0, 0, 0, MaxStream}, true},
		{Request{0, 0, 0, MaxStream + 1}, false},
		{Request{0, 0, 0, -1}, false},
	}
	for _, c := range cases {
		err := c.r.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v) = %v, want ok=%v", c.r, err, c.ok)
		}
	}
}

func TestMatches(t *testing.T) {
	e := Envelope{Src: 7, Tag: 42, Comm: 1}
	cases := []struct {
		r    Request
		want bool
	}{
		{Request{7, 42, 1, 0}, true},
		{Request{AnySource, 42, 1, 0}, true},
		{Request{7, AnyTag, 1, 0}, true},
		{Request{AnySource, AnyTag, 1, 0}, true},
		{Request{8, 42, 1, 0}, false},
		{Request{7, 43, 1, 0}, false},
		{Request{7, 42, 2, 0}, false},             // communicator always participates
		{Request{AnySource, AnyTag, 2, 0}, false}, // even under both wildcards
		{Request{7, 42, 1, 1}, false},             // stream always participates
		{Request{AnySource, AnyTag, 1, 3}, false}, // even under both wildcards
	}
	for _, c := range cases {
		if got := c.r.Matches(e); got != c.want {
			t.Errorf("%v.Matches(%v) = %v, want %v", c.r, e, got, c.want)
		}
	}
}

func TestMatchesStreamQualified(t *testing.T) {
	e := Envelope{Src: 7, Tag: 42, Comm: 1, Stream: 3}
	cases := []struct {
		r    Request
		want bool
	}{
		{Request{7, 42, 1, 3}, true},
		{Request{AnySource, AnyTag, 1, 3}, true},
		{Request{7, 42, 1, 0}, false},
		{Request{7, 42, 1, 2}, false},
	}
	for _, c := range cases {
		if got := c.r.Matches(e); got != c.want {
			t.Errorf("%v.Matches(%v) = %v, want %v", c.r, e, got, c.want)
		}
		if got := MatchesPacked(c.r.Pack(), e.Pack()); got != c.want {
			t.Errorf("MatchesPacked(%v, %v) = %v, want %v", c.r, e, got, c.want)
		}
	}
}

func TestHasWildcard(t *testing.T) {
	if (Request{Src: 1, Tag: 2}).HasWildcard() {
		t.Error("concrete request reported wildcard")
	}
	if !(Request{Src: AnySource, Tag: 2}).HasWildcard() || !(Request{Src: 1, Tag: AnyTag}).HasWildcard() {
		t.Error("wildcard request not reported")
	}
}

func TestPackUnpackEnvelopeRoundTrip(t *testing.T) {
	f := func(src uint32, tag uint16, comm uint16, stream uint8) bool {
		e := Envelope{
			Src:    Rank(src % (1 << 20)),
			Tag:    Tag(tag),
			Comm:   Comm(comm % (1 << 12)),
			Stream: Stream(stream % (1 << 4)),
		}
		got, ok := UnpackEnvelope(e.Pack())
		return ok && got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackUnpackRequestRoundTrip(t *testing.T) {
	f := func(src uint32, tag uint16, comm uint16, stream uint8, anySrc, anyTag bool) bool {
		r := Request{
			Src:    Rank(src % (1 << 20)),
			Tag:    Tag(tag),
			Comm:   Comm(comm % (1 << 12)),
			Stream: Stream(stream % (1 << 4)),
		}
		if anySrc {
			r.Src = AnySource
		}
		if anyTag {
			r.Tag = AnyTag
		}
		got, ok := UnpackRequest(r.Pack())
		return ok && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnpackInvalidWord(t *testing.T) {
	if _, ok := UnpackEnvelope(0); ok {
		t.Error("UnpackEnvelope(0) reported valid")
	}
	if _, ok := UnpackRequest(0); ok {
		t.Error("UnpackRequest(0) reported valid")
	}
}

func TestMatchesPackedAgreesWithMatches(t *testing.T) {
	f := func(src, rsrc uint16, tag, rtag uint8, comm, rcomm, stream, flags uint8) bool {
		e := Envelope{Src: Rank(src), Tag: Tag(tag), Comm: Comm(comm % 8), Stream: Stream(stream % 4)}
		r := Request{Src: Rank(rsrc), Tag: Tag(rtag), Comm: Comm(rcomm % 8), Stream: Stream((stream >> 4) % 4)}
		if flags&1 != 0 {
			r.Src = AnySource
		}
		if flags&2 != 0 {
			r.Tag = AnyTag
		}
		if flags&4 != 0 { // force tuple collision half the time
			r = Request{Src: e.Src, Tag: e.Tag, Comm: e.Comm, Stream: e.Stream}
		}
		return MatchesPacked(r.Pack(), e.Pack()) == r.Matches(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatchesPackedInvalid(t *testing.T) {
	e := Envelope{1, 2, 3, 0}.Pack()
	if MatchesPacked(0, e) || MatchesPacked(e, 0) {
		t.Error("MatchesPacked accepted an invalid word")
	}
}

// TestMatchKeyAgreesWithMatchesPacked checks the split predicate on
// arbitrary raw words (valid or not, wildcard bits set on either side)
// and on packed headers that collide half the time.
func TestMatchKeyAgreesWithMatchesPacked(t *testing.T) {
	agree := func(req, env uint64) bool {
		want, mask := MatchKey(req)
		return (env&mask == want) == MatchesPacked(req, env)
	}
	raw := func(req, env uint64, flags uint8) bool {
		if flags&1 != 0 {
			env = req ^ uint64(flags>>1)<<(flags%64)
		}
		return agree(req, env) && agree(req, 0) && agree(0, env)
	}
	if err := quick.Check(raw, nil); err != nil {
		t.Error(err)
	}
	packed := func(src, rsrc uint16, tag, rtag uint8, comm, stream, flags uint8) bool {
		e := Envelope{Src: Rank(src % 4), Tag: Tag(tag % 4), Comm: Comm(comm % 2), Stream: Stream(stream % 2)}
		r := Request{Src: Rank(rsrc % 4), Tag: Tag(rtag % 4), Comm: Comm(comm % 2), Stream: Stream((stream >> 4) % 2)}
		if flags&1 != 0 {
			r.Src = AnySource
		}
		if flags&2 != 0 {
			r.Tag = AnyTag
		}
		return agree(r.Pack(), e.Pack()) && agree(r.Pack(), Seal(e.Pack()))
	}
	if err := quick.Check(packed, nil); err != nil {
		t.Error(err)
	}
}

func TestPackPanicsOnInvalid(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("Envelope.Pack", func() { Envelope{Src: -1}.Pack() })
	assertPanics("Request.Pack", func() { Request{Tag: -5}.Pack() })
	assertPanics("Envelope.Pack stream", func() { Envelope{Stream: MaxStream + 1}.Pack() })
	assertPanics("Request.Key wildcard", func() { Request{Src: AnySource}.Key() })
}

func TestKeyEquality(t *testing.T) {
	e := Envelope{Src: 3, Tag: 9, Comm: 1}
	r := Request{Src: 3, Tag: 9, Comm: 1}
	if e.Key() != r.Key() {
		t.Error("matching tuple produced different keys")
	}
	r2 := Request{Src: 3, Tag: 10, Comm: 1}
	if e.Key() == r2.Key() {
		t.Error("different tuples produced equal keys")
	}
	// Same tuple on different streams must hash apart: the unordered
	// matcher's buckets are stream-qualified for free.
	e2 := Envelope{Src: 3, Tag: 9, Comm: 1, Stream: 2}
	if e.Key() == e2.Key() {
		t.Error("same tuple on different streams produced equal keys")
	}
}

// TestStreamZeroPackingUnchanged pins the compatibility guarantee the
// src-field narrowing rests on: any tuple with a source under 2^20 and
// the default stream packs to the exact word the pre-stream layout
// produced, so baselines, hashes and wire captures are undisturbed.
func TestStreamZeroPackingUnchanged(t *testing.T) {
	legacyPack := func(src, tag, comm uint64) uint64 {
		return Seal(uint64(validBit) | src | tag<<tagShift | comm<<commShift)
	}
	cases := []Envelope{
		{0, 0, 0, 0},
		{7, 42, 3, 0},
		{1<<20 - 1, MaxTag, MaxComm, 0},
	}
	for _, e := range cases {
		if got, want := e.Pack(), legacyPack(uint64(e.Src), uint64(e.Tag), uint64(e.Comm)); got != want {
			t.Errorf("stream-0 packing of %v drifted: got %#x want %#x", e, got, want)
		}
	}
}

func TestStrings(t *testing.T) {
	if s := (Envelope{1, 2, 3, 0}).String(); !strings.Contains(s, "src:1") {
		t.Errorf("Envelope.String() = %q", s)
	}
	s := (Request{AnySource, AnyTag, 0, 0}).String()
	if !strings.Contains(s, "src:ANY") || !strings.Contains(s, "tag:ANY") {
		t.Errorf("Request.String() = %q, want wildcards spelled out", s)
	}
	if s := (Envelope{1, 2, 3, 4}).String(); !strings.Contains(s, "stream:4") {
		t.Errorf("Envelope.String() = %q, want stream spelled out", s)
	}
}

// TestMatchesEdgeCases is the table-driven edge sweep over the corners
// of the matching predicate: both wildcards combined, tag values at
// the 16-bit ceiling, and zero/negative communicator handling.
func TestMatchesEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		r    Request
		e    Envelope
		want bool
	}{
		{"combined wildcards any message",
			Request{AnySource, AnyTag, 0, 0}, Envelope{12345, 999, 0, 0}, true},
		{"combined wildcards max tag",
			Request{AnySource, AnyTag, 0, 0}, Envelope{0, MaxTag, 0, 0}, true},
		{"combined wildcards still comm-gated",
			Request{AnySource, AnyTag, 3, 0}, Envelope{7, 7, 4, 0}, false},
		{"combined wildcards max comm",
			Request{AnySource, AnyTag, MaxComm, 0}, Envelope{1, 1, MaxComm, 0}, true},
		{"combined wildcards still stream-gated",
			Request{AnySource, AnyTag, 0, 1}, Envelope{7, 7, 0, 2}, false},
		{"combined wildcards max stream",
			Request{AnySource, AnyTag, 0, MaxStream}, Envelope{1, 1, 0, MaxStream}, true},
		{"max tag exact match",
			Request{5, MaxTag, 0, 0}, Envelope{5, MaxTag, 0, 0}, true},
		{"max tag vs max-1",
			Request{5, MaxTag, 0, 0}, Envelope{5, MaxTag - 1, 0, 0}, false},
		{"any source at max tag",
			Request{AnySource, MaxTag, 0, 0}, Envelope{9999, MaxTag, 0, 0}, true},
		{"any tag ignores tag entirely",
			Request{5, AnyTag, 0, 0}, Envelope{5, MaxTag, 0, 0}, true},
		{"zero comm matches zero comm",
			Request{1, 1, 0, 0}, Envelope{1, 1, 0, 0}, true},
		{"zero comm vs nonzero comm",
			Request{1, 1, 0, 0}, Envelope{1, 1, 1, 0}, false},
		{"rank zero concrete",
			Request{0, 0, 0, 0}, Envelope{0, 0, 0, 0}, true},
		{"rank zero vs any source",
			Request{AnySource, 0, 0, 0}, Envelope{0, 0, 0, 0}, true},
	}
	for _, c := range cases {
		if got := c.r.Matches(c.e); got != c.want {
			t.Errorf("%s: %v.Matches(%v) = %v, want %v", c.name, c.r, c.e, got, c.want)
		}
		// The packed predicate must agree wherever both sides are
		// packable (always, for these valid tuples).
		if got := MatchesPacked(c.r.Pack(), c.e.Pack()); got != c.want {
			t.Errorf("%s: MatchesPacked = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestValidateEdgeCases pins the boundary behavior of validation for
// negative and zero comm IDs and the 16-bit tag ceiling, which the
// packed representation depends on.
func TestValidateEdgeCases(t *testing.T) {
	envCases := []struct {
		name string
		e    Envelope
		ok   bool
	}{
		{"zero everything", Envelope{0, 0, 0, 0}, true},
		{"tag at 16-bit max", Envelope{0, MaxTag, 0, 0}, true},
		{"tag one past max", Envelope{0, MaxTag + 1, 0, 0}, false},
		{"comm zero", Envelope{0, 0, 0, 0}, true},
		{"comm negative", Envelope{0, 0, -1, 0}, false},
		{"comm deeply negative", Envelope{0, 0, -4096, 0}, false},
		{"stream at 4-bit max", Envelope{0, 0, 0, MaxStream}, true},
		{"stream one past max", Envelope{0, 0, 0, MaxStream + 1}, false},
		{"stream negative", Envelope{0, 0, 0, -1}, false},
		{"wildcard-valued src illegal on send side", Envelope{Rank(AnySource), 0, 0, 0}, false},
		{"wildcard-valued tag illegal on send side", Envelope{0, Tag(AnyTag), 0, 0}, false},
	}
	for _, c := range envCases {
		if err := c.e.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate(%v) = %v, want ok=%v", c.name, c.e, err, c.ok)
		}
	}
	reqCases := []struct {
		name string
		r    Request
		ok   bool
	}{
		{"combined wildcards", Request{AnySource, AnyTag, 0, 0}, true},
		{"combined wildcards max comm", Request{AnySource, AnyTag, MaxComm, 0}, true},
		{"combined wildcards negative comm", Request{AnySource, AnyTag, -1, 0}, false},
		{"tag at max", Request{0, MaxTag, 0, 0}, true},
		{"tag past max", Request{0, MaxTag + 1, 0, 0}, false},
		{"src -2 is not a wildcard", Request{-2, 0, 0, 0}, false},
		{"tag -2 is not a wildcard", Request{0, -2, 0, 0}, false},
		{"stream -1 is not a wildcard", Request{0, 0, 0, -1}, false},
		{"stream past max", Request{0, 0, 0, MaxStream + 1}, false},
	}
	for _, c := range reqCases {
		if err := c.r.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate(%v) = %v, want ok=%v", c.name, c.r, err, c.ok)
		}
	}
}

// TestCombinedWildcardPackRoundTrip checks both wildcards survive the
// packed encoding together with a max-width tag and comm underneath.
func TestCombinedWildcardPackRoundTrip(t *testing.T) {
	r := Request{AnySource, AnyTag, MaxComm, MaxStream}
	got, ok := UnpackRequest(r.Pack())
	if !ok || got != r {
		t.Errorf("round trip = %v, %v; want %v", got, ok, r)
	}
	if !r.HasWildcard() {
		t.Error("combined wildcard request reports no wildcard")
	}
}

// TestChecksumSealedOnPack: every packed word carries a matching
// checksum, and flipping any single bit breaks it — the property the
// GAS transport's corruption detection rests on. Stream bits are under
// the same seal: corrupting a stream id on the wire is detected.
func TestChecksumSealedOnPack(t *testing.T) {
	words := []uint64{
		Envelope{0, 0, 0, 0}.Pack(),
		Envelope{MaxRank, MaxTag, MaxComm, MaxStream}.Pack(),
		Envelope{12345, 77, 3, 0}.Pack(),
		Envelope{12345, 77, 3, 11}.Pack(),
		Request{AnySource, AnyTag, MaxComm, 5}.Pack(),
		Request{9, 5, 0, 0}.Pack(),
	}
	for _, w := range words {
		if !ChecksumOK(w) {
			t.Fatalf("freshly packed word %#x fails its own checksum", w)
		}
		for bit := 0; bit < 64; bit++ {
			if flipped := w ^ 1<<bit; ChecksumOK(flipped) {
				t.Errorf("word %#x with bit %d flipped passes the checksum", w, bit)
			}
		}
	}
}

// TestChecksumDetectsStreamCorruption targets the new field directly:
// every possible wrong stream value swapped into a sealed word fails
// the checksum (the XOR fold sees all four stream bits).
func TestChecksumDetectsStreamCorruption(t *testing.T) {
	w := Envelope{Src: 7, Tag: 42, Comm: 3, Stream: 9}.Pack()
	for s := uint64(0); s <= uint64(MaxStream); s++ {
		if s == 9 {
			continue
		}
		corrupted := (w &^ (uint64(streamMask64) << streamShift)) | s<<streamShift
		if ChecksumOK(corrupted) {
			t.Errorf("stream %d swapped into %#x passes the checksum", s, w)
		}
	}
}

// TestSealIdempotent: sealing a sealed word is a no-op, and sealing
// commutes with the fields the matchers read.
func TestSealIdempotent(t *testing.T) {
	e := Envelope{Src: 42, Tag: 17, Comm: 5, Stream: 2}
	w := e.Pack()
	if Seal(w) != w {
		t.Error("Seal not idempotent")
	}
	got, ok := UnpackEnvelope(w)
	if !ok || got != e {
		t.Errorf("checksum bits leaked into unpacked fields: %v", got)
	}
}

func TestStreamOf(t *testing.T) {
	for s := Stream(0); s <= MaxStream; s++ {
		e := Envelope{Src: 3, Tag: 1, Comm: 0, Stream: s}
		if got := StreamOf(e.Pack()); got != s {
			t.Errorf("StreamOf(%v.Pack()) = %d, want %d", e, got, s)
		}
	}
}

func TestSanitizeEnvelope(t *testing.T) {
	raw := []struct{ src, tag, comm int32 }{
		{0, 0, 0},
		{-1, -1, -1},
		{1 << 30, 1 << 20, 1 << 20},
		{-2147483648, 65536, 4096},
		{12345, int32(MaxTag), int32(MaxComm)},
	}
	for _, c := range raw {
		e := SanitizeEnvelope(c.src, c.tag, c.comm)
		if err := e.Validate(); err != nil {
			t.Errorf("SanitizeEnvelope(%d,%d,%d) = %v: %v", c.src, c.tag, c.comm, e, err)
		}
	}
	// Already-valid tuples pass through unchanged.
	if e := SanitizeEnvelope(7, 42, 3); (e != Envelope{7, 42, 3, 0}) {
		t.Errorf("valid tuple altered: %v", e)
	}
}

func TestSanitizeRequest(t *testing.T) {
	for wild := uint8(0); wild < 8; wild++ {
		r := SanitizeRequest(-7, 1<<17, -9, wild)
		if err := r.Validate(); err != nil {
			t.Errorf("SanitizeRequest(wild=%d) = %v: %v", wild, r, err)
		}
		if (wild&1 != 0) != (r.Src == AnySource) {
			t.Errorf("wild=%d: Src = %v", wild, r.Src)
		}
		if (wild&2 != 0) != (r.Tag == AnyTag) {
			t.Errorf("wild=%d: Tag = %v", wild, r.Tag)
		}
	}
}

// TestSanitizeStream pins the out-of-range stream handling of the
// stream-aware sanitizers: any raw stream value — negative, past
// MaxStream, or extreme — is masked into [0, MaxStream] and the result
// always validates, mirroring the src/tag sanitization contract.
func TestSanitizeStream(t *testing.T) {
	raws := []int32{0, 1, int32(MaxStream), int32(MaxStream) + 1, -1, -16, 1 << 30, -2147483648}
	for _, s := range raws {
		e := SanitizeEnvelopeStream(7, 42, 3, s)
		if err := e.Validate(); err != nil {
			t.Errorf("SanitizeEnvelopeStream(stream=%d) = %v: %v", s, e, err)
		}
		if e.Stream < 0 || e.Stream > MaxStream {
			t.Errorf("SanitizeEnvelopeStream(stream=%d) left stream %d out of range", s, e.Stream)
		}
		r := SanitizeRequestStream(7, 42, 3, s, 3)
		if err := r.Validate(); err != nil {
			t.Errorf("SanitizeRequestStream(stream=%d) = %v: %v", s, r, err)
		}
		if r.Stream != e.Stream {
			t.Errorf("sanitizers disagree on stream %d: %d vs %d", s, r.Stream, e.Stream)
		}
	}
	// In-range streams pass through unchanged.
	if e := SanitizeEnvelopeStream(7, 42, 3, 9); e.Stream != 9 {
		t.Errorf("valid stream altered: %v", e)
	}
}
