package wdm

import (
	"encoding/json"
	"fmt"
)

// planJSON is the serialized form of a Plan.
type planJSON struct {
	M           int          `json:"ringSize"`
	Channels    int          `json:"channels"`
	Rings       int          `json:"physicalRings"`
	Assignments []Assignment `json:"assignments"`
}

// MarshalJSON serializes the plan; wavelength planning is a one-time,
// design-time activity (§3.1.1: performed "by the device manufacturer
// at the factory"), so plans are meant to be stored and shipped.
func (p *Plan) MarshalJSON() ([]byte, error) {
	return json.Marshal(planJSON{M: p.M, Channels: p.Channels, Rings: p.Rings, Assignments: p.Assignments})
}

// UnmarshalJSON deserializes and validates structural bounds; call
// Validate for the full §3.1 invariants.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var pj planJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return err
	}
	if pj.M < 0 || pj.Channels < 0 || pj.Rings < 0 {
		return fmt.Errorf("wdm: negative fields in serialized plan")
	}
	p.M, p.Channels, p.Rings, p.Assignments = pj.M, pj.Channels, pj.Rings, pj.Assignments
	return nil
}
