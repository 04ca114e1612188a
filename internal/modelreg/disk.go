package modelreg

import (
	"encoding/json"
	"fmt"

	"repro/internal/diskcache"
)

// encodeSet is the registry's disk wire form: the ModelSet's JSON
// document, which already is the artifact clients receive.
func encodeSet(ms *ModelSet) ([]byte, error) { return json.Marshal(ms) }

// decodeSet unmarshals a persisted model set and re-checks that its
// embedded Key matches the key the entry was read under, so a file
// renamed onto another key can never serve the wrong models.
func decodeSet(key string, data []byte) (*ModelSet, error) {
	var ms ModelSet
	if err := json.Unmarshal(data, &ms); err != nil {
		return nil, fmt.Errorf("modelreg: decode persisted model set: %w", err)
	}
	if ms.Key != key {
		return nil, fmt.Errorf("modelreg: persisted model set carries key %s, stored under %s", ms.Key, key)
	}
	if len(ms.Functions) == 0 {
		return nil, fmt.Errorf("modelreg: persisted model set is empty")
	}
	return &ms, nil
}

// OpenDiskLayer opens the registry's persistent tier rooted at dir,
// version-stamped with the design digest version: bumping the fitting
// semantics orphans every previously persisted set instead of serving
// stale models under fresh keys.
func OpenDiskLayer(dir string) (*diskcache.Layer[*ModelSet], error) {
	st, err := diskcache.Open(dir, designDigestVersion)
	if err != nil {
		return nil, err
	}
	return diskcache.NewLayer(st, encodeSet, decodeSet), nil
}
