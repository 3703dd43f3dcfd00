package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// HashKey returns a content-addressed cache key: the hex SHA-256 of the
// driver name and the canonical JSON of each part (encoding/json emits
// struct fields in declaration order, so the encoding is deterministic).
// Callers pass Normalize'd configurations so equivalent machines share keys.
func HashKey(driver string, parts ...any) (string, error) {
	h := sha256.New()
	h.Write([]byte(driver))
	for _, p := range parts {
		h.Write([]byte{0})
		b, err := json.Marshal(p)
		if err != nil {
			return "", fmt.Errorf("core: hash key for %s: %w", driver, err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
