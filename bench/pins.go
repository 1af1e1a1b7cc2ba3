package main

import (
	_ "embed"
	"encoding/json"
	"strconv"
)

// Pinned fingerprints: per workload, the study's full fingerprint at seeds
// 7 and 11 (11 is the hold-out seed no sizing used). For any other seed the
// set-up's Check run is the reference and every timed study must agree with
// it. Regenerate with `-pin` only when a change is meant to alter simulated
// statistics.
//
//go:embed testdata/fingerprints.json
var pinnedJSON []byte

var pinnedSeeds = []int64{7, 11}

func loadPins() map[string]map[string]string {
	pins := map[string]map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		panic("bench: testdata/fingerprints.json: " + err.Error())
	}
	return pins
}

// pinnedFingerprint returns the pinned fingerprint of workload at seed.
func pinnedFingerprint(workload string, seed int64) (string, bool) {
	fp, ok := loadPins()[workload][strconv.FormatInt(seed, 10)]
	return fp, ok
}
