"""Cost modelling for compliant storage (the paper's §3 Cost requirement)."""
