package netblock

import "time"

// RetryConfig is how the external (package netblock_test) stress test reaches
// the retry settings, which only this package's tests set.
func RetryConfig(timeout time.Duration, maxRetries int, backoffBase time.Duration, seed int64) Config {
	return Config{Timeout: timeout, maxRetries: maxRetries, backoffBase: backoffBase, seed: seed}
}
