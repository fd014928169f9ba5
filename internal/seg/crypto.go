package seg

import (
	"crypto/sha1"
	"encoding/binary"
	"math/rand"
)

// Token derives the 32-bit connection token from a key: the most significant
// 32 bits of SHA-1(key) (RFC 6824 §3.2). A host receiving an MP_JOIN uses
// the token to look up the Multipath TCP connection the subflow joins.
func Token(key uint64) uint32 {
	var kb [8]byte
	binary.BigEndian.PutUint64(kb[:], key)
	sum := sha1.Sum(kb[:])
	return binary.BigEndian.Uint32(sum[0:4])
}

// IDSN derives the initial data sequence number from a key: the least
// significant 64 bits of SHA-1(key) (RFC 6824 §3.2).
func IDSN(key uint64) uint64 {
	var kb [8]byte
	binary.BigEndian.PutUint64(kb[:], key)
	sum := sha1.Sum(kb[:])
	return binary.BigEndian.Uint64(sum[12:20])
}

// JoinHMAC computes the MP_JOIN authentication HMAC-SHA1 over the two
// nonces, keyed by the concatenation of the local and remote keys
// (RFC 6824 §3.2). senderFirst orders the key material: the initiator of
// the message puts its own key first.
func JoinHMAC(localKey, remoteKey uint64, localNonce, remoteNonce uint32) [20]byte {
	var key [16]byte
	binary.BigEndian.PutUint64(key[0:], localKey)
	binary.BigEndian.PutUint64(key[8:], remoteKey)
	var msg [8]byte
	binary.BigEndian.PutUint32(msg[0:], localNonce)
	binary.BigEndian.PutUint32(msg[4:], remoteNonce)
	return hmacSHA1(key[:], msg[:])
}

// hmacMaxMsg bounds hmacSHA1's message so its buffers are fixed arrays.
const hmacMaxMsg = sha1.BlockSize

// hmacSHA1 is RFC 2104 HMAC-SHA1 for a key of at most one SHA-1 block (so
// it is zero-padded, never hashed) and a message of at most hmacMaxMsg
// bytes: H((K⊕opad) ‖ H((K⊕ipad) ‖ msg)) as two sha1.Sum calls over stack
// arrays. Authenticating a join therefore allocates nothing, where
// hmac.New(sha1.New, key) costs six objects per MAC. The tests hold it to
// crypto/hmac byte for byte (TestJoinHMACMatchesCryptoHMAC) and to the
// RFC 2202 vectors of this shape.
func hmacSHA1(key, msg []byte) [sha1.Size]byte {
	if len(key) > sha1.BlockSize || len(msg) > hmacMaxMsg {
		panic("seg: hmacSHA1 key or message too long")
	}
	var inner [sha1.BlockSize + hmacMaxMsg]byte
	var outer [sha1.BlockSize + sha1.Size]byte
	copy(inner[:], key)
	copy(outer[:], key)
	for i := 0; i < sha1.BlockSize; i++ {
		inner[i] ^= 0x36
		outer[i] ^= 0x5c
	}
	n := sha1.BlockSize + copy(inner[sha1.BlockSize:], msg)
	sum := sha1.Sum(inner[:n])
	copy(outer[sha1.BlockSize:], sum[:])
	return sha1.Sum(outer[:])
}

// TruncatedJoinHMAC returns the leftmost 64 bits of the join HMAC, the form
// carried in the MP_JOIN SYN+ACK.
func TruncatedJoinHMAC(localKey, remoteKey uint64, localNonce, remoteNonce uint32) uint64 {
	h := JoinHMAC(localKey, remoteKey, localNonce, remoteNonce)
	return binary.BigEndian.Uint64(h[0:8])
}

// NewKey draws a random 64-bit MPTCP key from the given source (the
// simulation's deterministic RNG in practice).
func NewKey(rng *rand.Rand) uint64 {
	// Uint64 composed from two Int63 draws so any seeded source works.
	return uint64(rng.Int63())<<1 ^ uint64(rng.Int63())
}
