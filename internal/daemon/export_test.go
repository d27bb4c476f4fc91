package daemon

import "time"

// SetDeliveryTimeout shortens the delivery round-trip bound for an
// external test and returns the restore.
func SetDeliveryTimeout(d time.Duration) (restore func()) {
	old := deliveryTimeout
	deliveryTimeout = d
	return func() { deliveryTimeout = old }
}
