// Package nvm holds the reshaped square subarray RC-NVM-wd runs on. The
// baseline crossbar-RRAM personality (Table 2 timing, CL-tRCD-tRP =
// 17-35-1, and write-pulse occupancy) is dram.RRAM.
package nvm

import "sam/internal/dram"

// ReshapedSquare returns the RC-NVM-wd configuration: subarrays reshaped to
// a square (2K x 2K cells per mat) so the column direction matches the row
// direction. The reshape multiplies global bitlines — the ~33% area cost
// Section 3.3.2 cites — and shrinks the effective row the open-page policy
// works with.
func ReshapedSquare() dram.Config {
	c := dram.RRAM()
	c.Name = "RRAM-square"
	// Square mats: as many rows as columns per subarray. The squarer
	// geometry leaves a much smaller row (1KB rank-level) for the open-page
	// policy, which is where RC-NVM's record-size sensitivity (Fig. 15i)
	// comes from.
	c.Geometry.RowBytes = 1024
	c.Geometry.RowsPerSubarray = 8192
	c.Geometry.SubarraysPerBank = 128
	return c
}
