package seg

// crypto/hmac over crypto/sha1 — what JoinHMAC called before HMAC-SHA1 was
// written out over stack arrays (hmacSHA1) — kept as the referee. The
// differential test drives both with one seeded stream of keys and
// nonces; the RFC 2202 vectors pin the helper and the referee alike.

import (
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
)

func refHMACSHA1(key, msg []byte) [sha1.Size]byte {
	mac := hmac.New(sha1.New, key)
	mac.Write(msg)
	var out [sha1.Size]byte
	copy(out[:], mac.Sum(nil))
	return out
}

func refJoinHMAC(localKey, remoteKey uint64, localNonce, remoteNonce uint32) [sha1.Size]byte {
	var key [16]byte
	binary.BigEndian.PutUint64(key[0:], localKey)
	binary.BigEndian.PutUint64(key[8:], remoteKey)
	var msg [8]byte
	binary.BigEndian.PutUint32(msg[0:], localNonce)
	binary.BigEndian.PutUint32(msg[4:], remoteNonce)
	return refHMACSHA1(key[:], msg[:])
}

func TestJoinHMACMatchesCryptoHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 10000; i++ {
		kl, kr := rng.Uint64(), rng.Uint64()
		nl, nr := rng.Uint32(), rng.Uint32()
		switch i % 16 { // the corners a uniform draw never visits
		case 0:
			kl, kr = 0, 0
		case 1:
			kl, kr, nl, nr = ^uint64(0), ^uint64(0), ^uint32(0), ^uint32(0)
		case 2:
			nl, nr = 0, 0
		}
		want := refJoinHMAC(kl, kr, nl, nr)
		if got := JoinHMAC(kl, kr, nl, nr); got != want {
			t.Fatalf("JoinHMAC(%x, %x, %x, %x) = %x, crypto/hmac says %x", kl, kr, nl, nr, got, want)
		}
		if got, w := TruncatedJoinHMAC(kl, kr, nl, nr), binary.BigEndian.Uint64(want[:8]); got != w {
			t.Fatalf("TruncatedJoinHMAC(%x, %x, %x, %x) = %x, crypto/hmac says %x", kl, kr, nl, nr, got, w)
		}
	}
}

// TestHMACSHA1RFC2202 runs the RFC 2202 §3 HMAC-SHA1 test cases whose key
// fits one block, which is hmacSHA1's shape (MP_JOIN keys are 16 bytes).
// Cases 6 and 7 use 80-byte keys, which HMAC hashes first; the helper
// refuses them, so they are checked to panic rather than to match.
func TestHMACSHA1RFC2202(t *testing.T) {
	rep := func(b byte, n int) string { return strings.Repeat(string([]byte{b}), n) }
	var key4 []byte
	for b := byte(1); b <= 25; b++ {
		key4 = append(key4, b)
	}
	for i, c := range []struct{ key, data, digest string }{
		{rep(0x0b, 20), "Hi There", "b617318655057264e28bc0b6fb378c8ef146be00"},
		{"Jefe", "what do ya want for nothing?", "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
		{rep(0xaa, 20), rep(0xdd, 50), "125d7342b9ac11cd91a39af48aa17b4f63f175d3"},
		{string(key4), rep(0xcd, 50), "4c9007f4026250c6bc8414f9bf50c86c2d7235da"},
		{rep(0x0c, 20), "Test With Truncation", "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04"},
	} {
		got := hmacSHA1([]byte(c.key), []byte(c.data))
		if hex.EncodeToString(got[:]) != c.digest {
			t.Errorf("RFC 2202 case %d: hmacSHA1 = %x, want %s", i+1, got, c.digest)
		}
		if ref := refHMACSHA1([]byte(c.key), []byte(c.data)); ref != got {
			t.Errorf("RFC 2202 case %d: crypto/hmac = %x, hmacSHA1 = %x", i+1, ref, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("hmacSHA1 accepted an 80-byte key (RFC 2202 case 6) it cannot zero-pad")
		}
	}()
	hmacSHA1([]byte(rep(0xaa, 80)), []byte("Test Using Larger Than Block-Size Key - Hash Key First"))
}
