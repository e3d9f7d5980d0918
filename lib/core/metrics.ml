include Dc_clock.Metrics
